"""``record``: the class decorator for the package's frozen value classes.

It gives a class what ``@dataclass(frozen=True)`` gave it, without importing
``dataclasses``, which pulls in ``inspect``: a large share of the start-up of
a short command.  The class gets

* a constructor over the annotated fields, in order, positional or keyword,
  with the class-body values as defaults, ending in ``__post_init__`` when the
  class has one;
* ``__match_args__`` and a ``repr`` of the form ``Name(field=value, ...)``;
* equality only between instances of the same class, and a hash over the
  fields;
* ``AttributeError`` on assignment and deletion.
"""

from operator import attrgetter


def record(cls):
    names = tuple(cls.__annotations__)
    params = [f"{name}=_body[{name!r}]" if name in cls.__dict__ else name for name in names]
    body = [f"    _set(self, {name!r}, {name})\n" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()\n")
    namespace = {"_set": object.__setattr__, "_body": cls.__dict__}
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]

    values = attrgetter(*names)

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (init, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
