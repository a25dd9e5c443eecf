"""Value records: slotted classes that compare, hash, print and copy by their fields.

A record class lists its fields once, in __slots__.  When the class is
made, a field setter is generated from them: a function of one value per
field, positionally and in __slots__ order, that fills each slot through
the slot's own descriptor, in one straight line, and raises a TypeError
naming the class on a wrong field count.  A class that writes no __init__
takes the setter as its constructor.  A class that checks or converts its
inputs writes its own __init__, which ends in super().__init__ with every
field in that order, and Record.__init__ runs the same setter.  Record
gives equality by value (records of other classes never compare equal)
and a repr naming every field; a Record is mutable and unhashable.  A
FrozenRecord hashes its fields and refuses assignment and deletion; the
slot descriptors bypass that refusal, so only the setter writes its
fields.  Both pickle and copy by calling the class on their fields in
__slots__ order.
"""

from __future__ import annotations

from operator import attrgetter


def _field_setter(cls):
    """The generated setter of cls's fields, one slot-descriptor __set__ per field."""
    names = cls.__slots__
    namespace = {f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(names)}
    source = (f"def __init__(self, {', '.join(names)}):\n"
              + "".join(f"    _set{i}(self, {name})\n" for i, name in enumerate(names)))
    exec(compile(source, f"<record {cls.__name__}>", "exec"), namespace)
    setter = namespace["__init__"]
    # an argument error names the function's qualified name: "ScanCell.__init__()"
    setter.__qualname__ = f"{cls.__qualname__}.__init__"
    return setter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if cls.__slots__:
            # every record class has at least two fields, so this returns a tuple
            cls._fields = attrgetter(*cls.__slots__)
            cls._set_fields = _field_setter(cls)
            if "__init__" not in cls.__dict__:
                cls.__init__ = cls._set_fields

    def __init__(self, *fields):
        self._set_fields(*fields)

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
