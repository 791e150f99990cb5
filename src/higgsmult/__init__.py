"""Exact multiplicity computations for nilpotent cone components.

The toolkit works with type (1,...,1) fixed-point chains of Higgs
bundles on a curve of genus g >= 2: stability and very-stability tests,
Hecke-transform rewrites, virtual equivariant multiplicities as exact
integer polynomials, and the parallel multiplicity formulas for simple
Lie groups built on a self-contained root system engine.  All
arithmetic is exact; nothing here touches floating point.

Each module imports what it uses, and the command line imports a
subcommand's modules only when that subcommand runs.
"""

__version__ = "0.1.0"


class Record(tuple):
    """Base of the package's immutable value classes.

    A value class derives from Record and from a `collections.namedtuple`
    of its fields, in that order, so an instance is the tuple of its
    fields: it hashes as that tuple, orders as it, and prints as
    ``Name(field=value, ...)``.  Record makes it equal only to instances
    of its own class and refuses every assignment.
    """

    __slots__ = ()

    # not NotImplemented for other classes: tuple's own comparison, tried
    # next, would compare the fields of any tuple
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")
