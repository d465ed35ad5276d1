"""The one base of linkimm's immutable value records.

A record class lists its field names, in constructor order, in
``_fields``, and writes its own ``__init__``: it checks its arguments and
stores the normalized values straight into the instance ``__dict__``.
``Record`` then gives it value semantics:

* equality -- two records are equal only when they are of the same class
  and their field tuples are equal; against an object of any other class
  ``==`` returns NotImplemented, so a record never equals a plain tuple;
* hash -- the hash of the field tuple (of the one value, for a one-field
  record), so equal records hash equal;
* repr -- ``Name(field=value, ...)`` over the fields, leaving out those
  named in ``_hidden``;
* immutability -- assigning or deleting any attribute raises
  AttributeError.

Fields live in ``__dict__``, so a ``functools.cached_property`` of a record
(which writes to ``__dict__`` directly) works, and ``vars(record)`` shows
what has been built.  Each class reads its field tuple with one
``operator.attrgetter``, made when the class is defined.
"""

import operator


class Record:
    _fields = ()
    _hidden = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)

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
