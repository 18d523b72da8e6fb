"""Named YAML/JSON documents: the parser and library scenarios and
policies share (:mod:`repro.serve.scenario`, :mod:`repro.serve.policy`).

YAML support is a deliberately small subset — nested mappings by
indentation, ``- item`` lists, inline ``[a, b]`` lists, scalars
(int/float/bool/null/strings), ``#`` comments — so documents need no
third-party parser.  JSON documents (``.json`` or a leading ``{``) are
parsed with the stdlib.  Errors are :class:`~repro.errors.ConfigError`
naming the document kind and file (``policy parse: bad.yaml: line 3:
unexpected indent``).
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

from repro.errors import ConfigError

#: File extensions a named document may carry, in lookup order.
DOCUMENT_EXTS = (".yaml", ".yml", ".json")

_SCALAR_INT = re.compile(r"^[+-]?\d+$")
_SCALAR_FLOAT = re.compile(
    r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")


class _YamlError(Exception):
    """A YAML-subset error; :func:`parse_simple_yaml` adds the context."""


def _strip_comment(text: str) -> str:
    """Drop a ``#`` comment outside quotes."""
    quote = None
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#" and (i == 0 or text[i - 1] in " \t"):
            return text[:i]
    return text


def _parse_scalar(text: str, lineno: int):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part, lineno) for part in inner.split(",")]
    if (len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'"):
        return text[1:-1]
    if text in ("null", "~", "None"):
        return None
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    if _SCALAR_INT.match(text):
        return int(text)
    if _SCALAR_FLOAT.match(text):
        return float(text)
    if not text:
        raise _YamlError(f"line {lineno}: empty value")
    return text


def _parse_block(lines: list, start: int, indent: int):
    """Parse the block of ``lines`` at exactly ``indent``; returns
    ``(value, next_index)``.  ``lines`` rows are (indent, text, lineno)."""
    is_list = lines[start][1].startswith("- ") or lines[start][1] == "-"
    out: dict | list = [] if is_list else {}
    i = start
    while i < len(lines):
        ind, text, lineno = lines[i]
        if ind < indent:
            break
        if ind > indent:
            raise _YamlError(f"line {lineno}: unexpected indent")
        if is_list:
            if not (text.startswith("- ") or text == "-"):
                raise _YamlError(
                    f"line {lineno}: expected '- item' in list block")
            out.append(_parse_scalar(text[1:], lineno))
            i += 1
            continue
        if ":" not in text:
            raise _YamlError(f"line {lineno}: expected 'key: value'")
        key, _, rest = text.partition(":")
        key = key.strip()
        if not key:
            raise _YamlError(f"line {lineno}: empty key")
        if key in out:
            raise _YamlError(f"line {lineno}: duplicate key {key!r}")
        rest = rest.strip()
        if rest:
            out[key] = _parse_scalar(rest, lineno)
            i += 1
        else:
            # A nested block (deeper indent) or an empty mapping.
            if i + 1 < len(lines) and lines[i + 1][0] > indent:
                out[key], i = _parse_block(lines, i + 1, lines[i + 1][0])
            else:
                out[key] = {}
                i += 1
    return out, i


def _parse_yaml(text: str) -> dict:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "\t" in raw[:len(raw) - len(raw.lstrip())]:
            raise _YamlError(f"line {lineno}: tabs in indentation")
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip(" "))
        rows.append((indent, stripped.strip(), lineno))
    if not rows:
        raise _YamlError("empty document")
    if rows[0][0] != 0:
        raise _YamlError(
            f"line {rows[0][2]}: top level must not be indented")
    doc, consumed = _parse_block(rows, 0, 0)
    if consumed != len(rows):
        raise _YamlError(f"line {rows[consumed][2]}: unreachable "
                         f"content (bad indentation?)")
    if not isinstance(doc, dict):
        raise _YamlError("top level must be a mapping")
    return doc


def parse_simple_yaml(text: str, context: str = "scenario parse") -> dict:
    """Parse the YAML subset into plain Python data.

    ``context`` prefixes every error, e.g. ``scenario parse: line 3:
    unexpected indent``.
    """
    try:
        return _parse_yaml(text)
    except _YamlError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _read(path: str, kind: str) -> dict:
    """Parse the ``kind`` document at ``path`` (JSON or the YAML subset)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    context = f"{kind} parse: {path}"
    if path.endswith(".json") or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{context}: top level must be a mapping")
        return doc
    return parse_simple_yaml(text, context)


@dataclass(frozen=True)
class DocumentLibrary:
    """One named-document library and its search path.

    The search path is the directory named by ``$<env_var>``, then
    ``examples/<subdir>/`` under the working directory, then under the
    repository checkout.  Earlier directories shadow later ones, like
    ``$PATH``.
    """

    #: Document kind, prefixing every error (``scenario``, ``policy``).
    kind: str
    #: Environment variable naming the highest-priority directory.
    env_var: str
    #: Subdirectory of ``examples/``; also the plural in messages.
    subdir: str

    def dirs(self) -> list:
        """Search path, highest priority first."""
        dirs = []
        env = os.environ.get(self.env_var)
        if env:
            dirs.append(env)
        dirs.append(os.path.join(os.getcwd(), "examples", self.subdir))
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))))
        dirs.append(os.path.join(repo_root, "examples", self.subdir))
        seen, out = set(), []
        for d in dirs:
            real = os.path.realpath(d)
            if real not in seen:
                seen.add(real)
                out.append(d)
        return out

    def _find(self, ref: str) -> str:
        if os.path.sep in ref or ref.endswith(DOCUMENT_EXTS) \
                or os.path.exists(ref):
            if not os.path.exists(ref):
                raise ConfigError(f"{self.kind}: no such file: {ref}")
            return ref
        for d in self.dirs():
            for ext in DOCUMENT_EXTS:
                candidate = os.path.join(d, ref + ext)
                if os.path.exists(candidate):
                    return candidate
        known = sorted(entry["name"] for entry in self.entries())
        raise ConfigError(
            f"{self.kind}: no {self.kind} named {ref!r}; known "
            f"{self.subdir}: {', '.join(known) if known else '(none found)'}")

    def read(self, ref: str) -> tuple:
        """Find and parse a document by file path or library name.

        Returns ``(document, name, path)``; ``name`` is the file's base
        name without its extension.
        """
        path = self._find(ref)
        try:
            doc = _read(path, self.kind)
        except OSError as exc:
            raise ConfigError(
                f"{self.kind}: unreadable {path}: {exc}") from exc
        return doc, os.path.splitext(os.path.basename(path))[0], path

    def entries(self) -> list:
        """Every named document on the search path: name/path/description."""
        out, seen = [], set()
        for d in self.dirs():
            try:
                names = sorted(os.listdir(d))
            except OSError:
                continue
            for entry in names:
                base, ext = os.path.splitext(entry)
                if ext not in DOCUMENT_EXTS or base in seen:
                    continue
                seen.add(base)
                path = os.path.join(d, entry)
                try:
                    description = str(
                        _read(path, self.kind).get("description", ""))
                except (ConfigError, OSError):
                    description = "(unparseable)"
                out.append({"name": base, "path": path,
                            "description": description})
        return sorted(out, key=lambda entry: entry["name"])
