"""Frozen value records whose methods are closures, not generated code.

``@record`` turns a class with annotated fields into an immutable value
type, as ``@dataclass(frozen=True)`` does, but builds ``__init__``,
``__eq__``, ``__hash__`` and ``__repr__`` from closures over the field
names instead of compiling source text. So a record costs no compile
at import, and the package loads neither ``dataclasses`` nor ``inspect``:
each ``gaugekit`` command runs in a fresh process and would pay for both
on every run.

Fields are the names in the class's own ``__annotations__``, in order;
a class attribute of the same name is the field's default (fields with
defaults come last, as in a dataclass). Methods the class defines itself
(``__init__``, ``__repr__``, ``__str__``, ...) are kept, and
``__post_init__`` runs after ``__init__`` sets the fields.
"""

_MISSING = object()
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a record."""


def frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    own = cls.__dict__
    names = tuple(own.get("__annotations__", {}))
    defaults = tuple(own.get(name, _MISSING) for name in names)
    qualname = cls.__qualname__

    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            if name in kwargs:
                raise TypeError(f"{qualname}() got multiple values for {name!r}")
            kwargs[name] = value
        for name, default in zip(names, defaults):
            value = kwargs.pop(name, default)
            if value is _MISSING:
                raise TypeError(f"{qualname}() missing argument {name!r}")
            _set(self, name, value)
        if kwargs:
            raise TypeError(f"{qualname}() got an unexpected argument {next(iter(kwargs))!r}")
        if "__post_init__" in own:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({body})"

    for name, value in (
        ("__init__", __init__),
        ("__eq__", __eq__),
        ("__repr__", __repr__),
        ("__match_args__", names),
    ):
        if name not in own:
            setattr(cls, name, value)
    cls.__hash__ = __hash__
    cls.__setattr__ = frozen_setattr
    cls.__delattr__ = frozen_delattr
    cls.__record_fields__ = names
    return cls


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` applied; the copy is
    built by the class's ``__init__``, so its checks run again."""
    for name in obj.__record_fields__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
