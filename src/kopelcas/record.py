"""Value records: slotted classes that compare, hash, print and copy by their fields.

A record class lists its fields once, in __slots__.  Record.__init__ takes
one value per field, positionally and in __slots__ order, and fills each
slot through the slot's own descriptor.  A class that checks or converts
its inputs writes its own __init__, which ends in super().__init__ with
every field in that order.  Record gives equality by value (records of
other classes never compare equal) and a repr naming every field; a Record
is mutable and unhashable.  A FrozenRecord hashes its fields and refuses
assignment and deletion; the slot descriptors bypass that refusal, so only
__init__ writes its fields.  Both pickle and copy by calling the class on
their fields in __slots__ order.
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
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *fields):
        setters = self._setters
        if len(fields) != len(setters):
            raise TypeError(f"{type(self).__qualname__} takes {len(setters)} fields, "
                            f"got {len(fields)}")
        # a plain counter runs quicker than zip or enumerate; a scan builds one ScanCell a cell
        i = 0
        for put in setters:
            put(self, fields[i])
            i += 1

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
