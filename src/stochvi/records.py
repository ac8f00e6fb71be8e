"""The immutable record base of the package's value types."""


class Record:
    """An immutable record whose fields are the names its class body
    annotates, in order, after those of its record bases; a class attribute
    of a field's name is its default.  It builds, prints, compares and hashes
    as a frozen dataclass would, but compiles no code per class."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name in own if name not in cls._fields)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        given = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in given:
                raise TypeError(f"{cls.__name__} got an unknown or repeated field {name!r}")
            given[name] = value
        for name in cls._fields:
            if name not in given and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            self.__dict__[name] = given[name] if name in given else getattr(cls, name)
        self.__post_init__()

    def __post_init__(self):
        """Checks a built record; none by default."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        pairs = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({pairs})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self._asdict().values()) == tuple(other._asdict().values())

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def _asdict(self) -> dict:
        return {name: self.__dict__[name] for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})
