def record(cls):
    """``cls`` as a frozen dataclass of its annotated fields, built without ``exec``."""
    names = tuple(cls.__annotations__)
    count, defaults = len(names), {n: vars(cls)[n] for n in names if n in vars(cls)}
    post_init, setattr = getattr(cls, "__post_init__", None), object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            rest, given = names[len(args):], {**defaults, **kwargs}
            if len(args) > count or kwargs.keys() - rest or not given.keys() >= {*rest}:
                raise TypeError(f"{cls.__name__}() takes the fields ({', '.join(names)})")
            args += tuple(map(given.__getitem__, rest))
        i = 0
        while i < count:  # allocates nothing, unlike zip or __dict__.update
            setattr(self, names[i], args[i])
            i += 1
        if post_init is not None:
            post_init(self)

    def immutable(self, name, value=None):  # both __setattr__ and __delattr__
        raise AttributeError(f"cannot assign or delete {name!r}: {cls.__name__} is immutable")

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, immutable, immutable
    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    return cls
