"""Flat key-value config files.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  Keys may repeat (used for ``drag_sample`` rows); values are kept
as raw strings and converted through the typed getters, which report the
offending key and line number on failure.
"""

from __future__ import annotations

from .errors import ConfigError

_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def _location(source, line):
    return f"{source}:{line}" if line else str(source)


class KeyValueConfig:
    """Parsed key-value file with typed, error-reporting accessors."""

    def __init__(self, entries, source="<memory>", sources=None):
        # entries: list of (key, raw_value, line_number); sources: the file of
        # each entry (default: source for all), kept through subsets and merges
        self.entries = list(entries)
        self.source = source
        self._sources = [source] * len(self.entries) if sources is None else list(sources)
        self._by_key = {}
        self._where = {}
        for (key, value, line), src in zip(self.entries, self._sources):
            self._by_key.setdefault(key, []).append((value, line))
            self._where[key] = _location(src, line)

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

    # -- raw access ---------------------------------------------------------

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
        """Config with other's entries appended (later entries win lookups)."""
        return KeyValueConfig(self.entries + other.entries, source=other.source,
                              sources=self._sources + other._sources)

    def where(self, key):
        """'source:line' of the entry that sets key (its last occurrence)."""
        return self._where[key]

    def reject_unknown(self, known, allow_prefixes=()):
        """ConfigError for the first key that is not in known and has none of the prefixes."""
        for key, _, _ in self.entries:
            if key in known or key.startswith(tuple(allow_prefixes)):
                continue
            import difflib   # only on this error path: it adds to every start-up

            close = difflib.get_close_matches(key, sorted(known), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ConfigError(f"{self._where[key]}: unknown key {key!r}{hint}")

    def __contains__(self, key):
        return key in self._by_key

    def keys(self):
        return list(self._by_key.keys())

    def _last(self, key):
        return self._by_key[key][-1][0]

    def get_all(self, key):
        """All (value, line) pairs for a repeated key, in file order."""
        return list(self._by_key.get(key, []))

    # -- typed getters ------------------------------------------------------

    def get_str(self, key, default=None):
        if key not in self._by_key:
            if default is not None:
                return default
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return self._last(key)

    def get_float(self, key, default=None):
        if key not in self._by_key:
            if default is not None:
                return float(default)
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        value = self._last(key)
        try:
            return float(value)
        except ValueError:
            raise ConfigError(
                f"{self.where(key)}: key {key!r}: cannot parse {value!r} as float"
            ) from None

    def get_int(self, key, default=None):
        if key not in self._by_key:
            if default is not None:
                return int(default)
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        value = self._last(key)
        try:
            return int(value)
        except ValueError:
            raise ConfigError(
                f"{self.where(key)}: key {key!r}: cannot parse {value!r} as int"
            ) from None

    def get_bool(self, key, default=None):
        if key not in self._by_key:
            if default is not None:
                return bool(default)
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        value = self._last(key)
        lowered = value.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ConfigError(f"{self.where(key)}: key {key!r}: cannot parse {value!r} as bool")

    def get_floats(self, key, default=None, n=None):
        """Comma-separated float list; length checked when n is given."""
        if key not in self._by_key:
            if default is not None:
                return list(default)
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        value = self._last(key)
        try:
            parts = [float(p) for p in value.split(",")]
        except ValueError:
            raise ConfigError(
                f"{self.where(key)}: key {key!r}: cannot parse {value!r} as float list"
            ) from None
        if n is not None and len(parts) != n:
            raise ConfigError(
                f"{self.where(key)}: key {key!r}: expected {n} values, got {len(parts)}"
            )
        return parts
