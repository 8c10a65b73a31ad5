"""Plain slotted record classes, without `dataclasses`.

`record` gives a class whose fields are its `__slots__` what a slotted
dataclass would get: `__eq__` (the same class and equal field tuples,
else NotImplemented), `__repr__` and `__match_args__`.  A frozen record
also gets `__hash__` of the field tuple, `__getstate__`/`__setstate__`
as the list of field values, and refuses assignment and deletion with an
`AttributeError`, the base class of `dataclasses.FrozenInstanceError`,
with the same text.  A mutable one is unhashable, and pickles as any
slotted object does.  The class writes its own `__init__`; a frozen one
stores its fields through `fill`, and is restored from its state by that
same `__init__`, so a record is made one way however it is made.

Importing `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`,
and building a dataclass compiles each of its methods from source:
together more than half of what importing `wtl.cli` cost from cached
bytecode (README, "Install and test").  Here nothing is compiled.
"""


def record(cls=None, *, frozen=True):
    """Make `cls`, whose fields are its `__slots__`, a record class.  Used
    as `@record` or `@record(frozen=False)`."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = cls.__slots__

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __getstate__(self):
        return list(values(self))

    cls.__eq__ = __eq__
    cls.__repr__ = __repr__
    cls.__match_args__ = names
    cls.__hash__ = __hash__ if frozen else None
    if frozen:
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        cls.__getstate__ = __getstate__
        cls.__setstate__ = _fill_from_state
        cls.__setattr__ = _refuse_assignment
        cls.__delattr__ = _refuse_deletion
    return cls


def fill(self, *values) -> None:
    """Store `values` in the fields of the record `self`, in order."""
    for set_value, value in zip(self._setters, values):
        set_value(self, value)


def _fill_from_state(self, state) -> None:
    # A pickle of the dataclass this record was holds a `__dict__`, whose
    # keys would otherwise be stored as the field values.
    if not isinstance(state, (list, tuple)) or len(state) != len(self._setters):
        raise TypeError(f"cannot restore {self.__class__.__qualname__} from state {state!r}")
    self.__init__(*state)


def _refuse_assignment(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise AttributeError(f"cannot delete field {name!r}")
