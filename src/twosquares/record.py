"""Immutable value records, built without `dataclasses`.

A `Record` subclass behaves as under `@dataclass(frozen=True)`.  Its
annotated fields, base-class fields first, give it `__init__` (fields
by position or keyword, class-level values as defaults, then
`__post_init__` if defined), `__eq__` (the tuples of fields, within one
class only; `NotImplemented` otherwise), `__hash__` (of that tuple),
the dataclass `repr`, and `AttributeError` on assignment and deletion.
Instances keep a `__dict__`, so `cached_property`, `copy` and `pickle`
work unchanged.  `__init__`, `__eq__` and `__hash__` come from an
`exec` of source written for each class, so they cost per call no more
than the dataclass's do (`__init__` writes the instance dict); the source
names only the class's own annotated fields.
A stub compiles `__init__` at the first construction, and `__eq__` with
`__hash__` at the first comparison or hash, and puts them in its place:
`exec` compiles even where bytecode is cached, and most classes are
never compared.  Importing `dataclasses` (with `inspect`) and building
classes with it took most of the package's import time.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._fields = cls.__match_args__ = fields
        for name in ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, _stub(cls, cls.__qualname__, name))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _stub(cls: type, qualname: str, name: str):
    """`cls.name` until its first call, which compiles it (`__eq__` with `__hash__`),
    installs it in the stub's place and runs it, named from the class as it was made."""

    def stub(self, *args, **kwargs):
        fields = cls._fields
        if name == "__init__":
            namespace = {f"_d_{n}": getattr(cls, n) for n in fields if hasattr(cls, n)}
            params = "".join(f", {n}=_d_{n}" if f"_d_{n}" in namespace else f", {n}" for n in fields)
            d = "d"  # the name of the instance dict, which no parameter may have
            while d in fields:
                d += "_"
            source = f"def __init__(self{params}):\n    {d} = self.__dict__\n"
            source += "".join(f"    {d}[{n!r}] = {n}\n" for n in fields)
            source += "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        else:
            namespace, mine = {}, "(" + "".join(f"self.{n}," for n in fields) + ")"
            source = (
                "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
                f"        return {mine} == {mine.replace('self.', 'other.')}\n    return NotImplemented\n"
                f"def __hash__(self):\n    return hash({mine})\n"
            )
        exec(source, namespace)
        for built in ("__init__", "__eq__", "__hash__"):
            if built in namespace:
                namespace[built].__qualname__ = f"{qualname}.{built}"
                setattr(cls, built, namespace[built])
        return namespace[name](self, *args, **kwargs)

    return stub
