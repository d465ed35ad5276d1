"""The one base of linkimm's immutable value records, and the one place that stores their fields.

A record class lists its field names, in constructor order, in
``_fields``.  From that list ``Record`` compiles, as
``collections.namedtuple`` does, two methods:

* ``_store(self, <fields>)``, compiled with the class, sets the fields,
  given by position or by name; a missing, extra or unknown argument
  raises TypeError.  It is the ``__init__`` of a class with no checks;
  a class that checks its arguments ends its own ``__init__`` with it.
* ``_trusted(*, <names>)``, compiled on its first call (few classes use
  it, and a compile adds to every process's start-up), builds a value
  the library computed itself, with no checks.  It takes the fields by
  name, and any value a ``functools.cached_property`` of the class would
  build: a matrix born sparse gets ``nonzero_rows`` and ``_symmetric``
  and no dense ``entries``.

Both set attributes with ``object.__setattr__``, so CPython 3.11+ keeps
them as inline values, with no per-instance dict until something reads
``__dict__`` (as ``cached_property`` and ``vars`` do): a two-field
record takes 88 B, where a dict-backed one took 240 B.  ``Record`` then
gives every class value semantics:

* equality -- two records are equal only when they are of the same class
  and their field tuples are equal; against an object of any other class
  ``==`` returns NotImplemented, so a record never equals a plain tuple;
* hash -- the hash of the field tuple (of the one value, for a one-field
  record), so equal records hash equal;
* repr -- ``Name(field=value, ...)`` over the fields, leaving out those
  named in ``_hidden``;
* immutability -- assigning or deleting any attribute raises
  AttributeError.

Each class reads its field tuple with one ``operator.attrgetter``, made
when the class is defined.  ``ints`` is the one integer rule of the
checked constructors: ``IntMatrix``, ``FinAbGroup``, ``CohClass``, ``Z2Class``.
"""

import functools
import operator

_ABSENT = object()  # a value left out of ``_trusted``, for its cached_property to build


def ints(values, what):
    """``values``, read once, as a tuple of plain ints: a bool counts as 0/1, any other type raises ValueError."""
    values = tuple(values)
    plain = True
    for v in values:
        if v.__class__ is not int:
            if not isinstance(v, int):
                raise ValueError(f"non-integer {what} {v!r}")
            plain = False
    return values if plain else tuple(map(int, values))


def _compile(cls, name, params, body):
    """The method ``name`` of ``cls`` from its parameters and body lines, compiled once."""
    source = "\n    ".join([f"def {name}({', '.join(params)}):", *body])
    namespace = {"_new": object.__new__, "_set": object.__setattr__, "_ABSENT": _ABSENT}
    exec(source, namespace)
    method = namespace[name]
    method.__qualname__ = f"{cls.__qualname__}.{name}"
    return method


class Record:
    _fields = ()
    _hidden = ()

    def __init_subclass__(cls):
        fields = cls._fields
        cls._key = operator.attrgetter(*fields)
        checks = "__init__" in vars(cls)
        cls._store = _compile(cls, "_store" if checks else "__init__", ["self", *fields],
                              [f"_set(self, {name!r}, {name})" for name in fields])
        if not checks:
            cls.__init__ = cls._store

    @classmethod
    def _trusted(cls, **attributes):
        """Compile the class's own ``_trusted`` on its first call, and call it."""
        lazy = [name for name, value in vars(cls).items() if isinstance(value, functools.cached_property)]
        given = [name for name in cls._fields if name not in lazy]
        params = ["cls", "*", *given, *[f"{name}=_ABSENT" for name in lazy]]
        body = ["self = _new(cls)",
                *[f"_set(self, {name!r}, {name})" for name in given],
                *[f"if {name} is not _ABSENT: _set(self, {name!r}, {name})" for name in lazy],
                "return self"]
        cls._trusted = classmethod(_compile(cls, "_trusted", params, body))
        return cls._trusted(**attributes)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {self.__class__.__name__}")
