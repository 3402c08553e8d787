"""Flat key-value config files, read into and written from dataclass sections.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Only a key read as rows (``drag_sample``) may repeat; a scalar key
set twice in one file is an error. A later file or an override may set a key
again, and the last setting wins.

A section is a dataclass whose fields are its keys. A field's default is the
key's default and its type gives the key's type: bool, int, float, str, or a
tuple of floats of the default's length (bool is its own type, never an int).
A field without a default is a required key, typed by its annotation, and
``field(metadata={"key": ...})`` names a key that differs from the field. A
field of any other type (an array, a nested section, a dict) is no key: its
class reads it. A ``{key: default}`` dict is a section of its own keys.
``read_section`` and ``write_section`` use the one table, so what one writes
the other reads back to equal values.
"""

from __future__ import annotations

import inspect   # loaded by dataclasses in any case
from dataclasses import MISSING, fields

from .errors import ConfigError

_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def _location(source, line):
    return f"{source}:{line}" if line else str(source)


def _parse_bool(text):
    lowered = text.lower()
    if lowered in _TRUE or lowered in _FALSE:
        return lowered in _TRUE
    raise ValueError(text)


# key type -> (parse, format); the format is exact: its output parses back to the value
_TYPES = {
    "bool": (_parse_bool, lambda v: "true" if v else "false"),
    "int": (int, lambda v: repr(int(v))),
    "float": (float, lambda v: repr(float(v))),
    "str": (str, str),
    "tuple": (lambda text: tuple(float(p) for p in text.split(",")),
              lambda v: ", ".join(repr(float(x)) for x in v)),
}


def key_table(section):
    """{key: (field name, default or MISSING, type name)} of a section."""
    if isinstance(section, dict):
        return {key: (key, default, type(default).__name__) for key, default in section.items()}
    table = {}
    for f in fields(section):
        kind = type(f.default).__name__
        if f.default is MISSING:   # a required key, typed by its annotation
            kind = getattr(f.type, "__name__", f.type)
        if kind in _TYPES:
            table[f.metadata.get("key", f.name)] = (f.name, f.default, kind)
    return table


def read_section(section, cfg, prefix="", extra=()):
    """Constructor kwargs of a section from the keys 'prefix + key' that cfg sets.

    A key under prefix that is not in the table is a ConfigError naming its
    file and line, unless extra holds the key or its first dotted part plus
    '.' (keys the caller reads itself). A key that names a ClassVar of the
    section, a retired key now fixed at the class value, says so. A required
    key cfg does not set is a ConfigError.
    """
    table = key_table(section)
    known = [prefix + key for key in table]
    for key in cfg.keys():
        if (key.startswith(prefix) and key not in known and key not in extra
                and key.partition(".")[0] + "." not in extra):
            import difflib   # only on this error path: it adds to every start-up

            name = key[len(prefix):]
            if (not isinstance(section, dict) and name in inspect.get_annotations(section)
                    and name not in {f.name for f in fields(section)}):   # a ClassVar
                value = getattr(section, name)
                raise ConfigError(f"{cfg.where(key)}: {key!r} is retired; fixed at "
                                  f"{_TYPES[type(value).__name__][1](value)}")

            close = difflib.get_close_matches(key, known + list(extra), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"{cfg.where(key)}: unknown key {key!r}{hint}")
    kwargs = {}
    for key, (name, default, kind) in table.items():
        key = prefix + key
        if key not in cfg:
            if default is MISSING:
                raise ConfigError(f"{cfg.source}: missing required key {key!r}")
            continue
        kwargs[name] = cfg.parse(key, kind, default)
    return kwargs


def write_section(section, prefix=""):
    """'prefix + key = value' lines of a section instance, in table order."""
    return [f"{prefix}{key} = {_TYPES[kind][1](getattr(section, name))}"
            for key, (name, _, kind) in key_table(section).items()]


class KeyValueConfig:
    """Parsed key-value file; each entry keeps the file and line it came from."""

    def __init__(self, entries, source="<memory>", sources=None):
        # entries: list of (key, raw_value, line_number); sources: the file of
        # each entry (default: source for all), kept through subsets and merges
        self.entries = list(entries)
        self.source = source
        self._sources = [source] * len(self.entries) if sources is None else list(sources)
        self._by_key = {}
        for (key, value, line), src in zip(self.entries, self._sources):
            self._by_key.setdefault(key, []).append((value, line, src))

    @classmethod
    def from_path(cls, path):
        entries = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                    )
                key, value = line.split("=", 1)
                key = key.strip()
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                entries.append((key, value.strip(), lineno))
        return cls(entries, source=str(path))

    def subset(self, prefix):
        """New config holding keys under 'prefix.' with the prefix stripped."""
        dot = prefix + "."
        picked = [
            ((key[len(dot):], value, line), f"{src}[{prefix}]")
            for (key, value, line), src in zip(self.entries, self._sources)
            if key.startswith(dot)
        ]
        return KeyValueConfig([e for e, _ in picked], source=f"{self.source}[{prefix}]",
                              sources=[src for _, src in picked])

    def merged_with(self, other):
        """Config with other's entries appended (later entries win lookups) and this source."""
        return KeyValueConfig(self.entries + other.entries, source=self.source,
                              sources=self._sources + other._sources)

    def __contains__(self, key):
        return key in self._by_key

    def keys(self):
        return list(self._by_key.keys())

    def where(self, key):
        """'source:line' of the entry that sets key (its last occurrence)."""
        _, line, src = self._by_key[key][-1]
        return _location(src, line)

    def get_all(self, key):
        """(value, 'source:line') of every entry of a repeatable key, in order."""
        return [(value, _location(src, line)) for value, line, src in self._by_key.get(key, [])]

    def value(self, key):
        """Raw value of a scalar key's last entry; set twice in one file is a ConfigError."""
        first_line = {}
        for _, line, src in self._by_key[key]:
            if src in first_line:
                raise ConfigError(f"{_location(src, first_line[src])}: key {key!r} "
                                  f"is set again on line {line}")
            first_line[src] = line
        return self._by_key[key][-1][0]

    def parse(self, key, kind, default=MISSING):
        """A key's value as one of the section key types; a tuple has the default's length."""
        text = self.value(key)
        try:
            value = _TYPES[kind][0](text)
        except ValueError:
            raise ConfigError(
                f"{self.where(key)}: key {key!r}: cannot parse {text!r} as {kind}"
            ) from None
        if kind == "tuple" and len(value) != len(default):
            raise ConfigError(f"{self.where(key)}: key {key!r}: expected {len(default)} "
                              f"values, got {len(value)}")
        return value
