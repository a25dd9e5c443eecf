"""Value records: slotted classes that compare, hash, print and copy by their fields.

A record class lists its fields in __slots__, in the order its __init__
takes them, and writes that __init__ itself.  Record gives equality by
value (records of other classes never compare equal) and a repr naming
every field; a Record is mutable and unhashable.  A FrozenRecord hashes its
fields and refuses assignment and deletion, so its __init__ sets them with
object.__setattr__.  Both pickle and copy by calling the class on their
fields, which is why __init__ must take every field, positionally, in order.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            # every record class has at least two fields, so this returns a tuple
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields(self))
