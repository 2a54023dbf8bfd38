"""Job validation against the shipped JSON schema, with no schema library.

The validator covers exactly the keywords ``jobspec.schema.json`` uses
(``KEYWORDS``); ``$defs``, ``$schema`` and ``title`` are read as annotations.
Loading a schema that uses any other keyword raises :class:`SchemaError`,
so a rule added to the schema is never silently ignored.

Errors follow Draft 2020-12.  Each keyword reports in the wording of the
reference validator that ``tests/test_jobschema.py`` compares against
(version 4.26), and :meth:`Validator.best_match` picks the one error to
report by that validator's relevance rule, over the errors sorted by
message: the shallowest path wins, then the later of two sibling paths, then
any keyword before ``anyOf``, then an error whose schema declares no type,
or one the value does not match; a winning ``anyOf`` is replaced by its
deepest branch error while exactly one branch error is deepest.

One difference is deliberate: ``integer`` means a Python ``int`` that is
not a ``bool``, so ``2.0`` is not an integer.  The handlers pass integers on
to ``range`` and to list indices, where a float fails.
"""

from __future__ import annotations

import re

KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "maxItems", "minimum", "enum", "anyOf", "pattern", "$ref",
    "allOf", "if", "then", "const",
})
ANNOTATIONS = frozenset({"$defs", "$schema", "title"})

_TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}

# property names a JSON path writes as ".name" rather than "['name']"
_PLAIN_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


class SchemaError(Exception):
    """The schema uses a keyword or a form this validator does not cover."""


class ValidationError:
    """One failed keyword: ``path`` is relative to the instance its
    validation started from (the job, or the value an ``anyOf`` tried);
    ``context`` holds the branch errors of a failed ``anyOf``."""

    __slots__ = ("message", "keyword", "path", "schema", "instance",
                 "context", "parent")

    def __init__(self, message, keyword, path, schema, instance, context=()):
        self.message = message
        self.keyword = keyword
        self.path = path
        self.schema = schema
        self.instance = instance
        self.context = context
        self.parent = None
        for error in context:
            error.parent = self

    @property
    def absolute_path(self):
        if self.parent is None:
            return self.path
        return self.parent.absolute_path + self.path

    @property
    def json_path(self):
        out = "$"
        for elem in self.absolute_path:
            if isinstance(elem, int):
                out += f"[{elem}]"
            elif _PLAIN_NAME.match(elem):
                out += "." + elem
            else:
                out += "['" + elem.replace("\\", "\\\\").replace("'", "\\'") + "']"
        return out

    def matches_type(self):
        name = self.schema.get("type")
        return name is not None and _TYPES[name](self.instance)


def _relevance(error):
    return (-len(error.path), error.path, error.keyword != "anyOf",
            not error.matches_type())


class Validator:
    """A loaded schema; raises :class:`SchemaError` on anything it does
    not cover."""

    def __init__(self, schema):
        self.schema = schema
        self._patterns = {}
        self._refs = {}
        self._check(schema, "#")

    # -- loading ------------------------------------------------------------

    def _check(self, schema, where):
        if not isinstance(schema, dict):
            raise SchemaError(f"{where}: a schema must be an object")
        for key, value in schema.items():
            at = f"{where}/{key}"
            if key not in KEYWORDS and key not in ANNOTATIONS:
                raise SchemaError(f"{at}: unsupported keyword {key!r}")
            if key in ("properties", "$defs"):
                for name, sub in value.items():
                    self._check(sub, f"{at}/{name}")
            elif key in ("items", "if", "then"):
                self._check(value, at)
            elif key in ("anyOf", "allOf"):
                for i, sub in enumerate(value):
                    self._check(sub, f"{at}/{i}")
            elif key == "type":
                if not isinstance(value, str) or value not in _TYPES:
                    raise SchemaError(f"{at}: uncovered type {value!r}")
            elif key == "additionalProperties":
                if not isinstance(value, bool):
                    raise SchemaError(f"{at}: only true or false is covered")
            elif key in ("enum", "const"):
                # equality of two JSON values is plain == when one is a string
                values = value if key == "enum" else [value]
                if not all(isinstance(v, str) for v in values):
                    raise SchemaError(f"{at}: only strings are covered")
            elif key == "pattern":
                self._patterns[value] = re.compile(value)
            elif key == "$ref":
                self._refs[value] = self._resolve(value, at)

    def _resolve(self, ref, where):
        if not ref.startswith("#/"):
            raise SchemaError(f"{where}: only local references are covered")
        node = self.schema
        for part in ref[2:].split("/"):
            if not isinstance(node, dict) or part not in node:
                raise SchemaError(f"{where}: {ref} does not resolve")
            node = node[part]
        return node

    # -- validation ---------------------------------------------------------

    def best_match(self, instance):
        """The one error to report, or None if ``instance`` is valid."""
        errors = sorted(self._errors(instance, self.schema, ()),
                        key=lambda e: e.message)
        best = max(errors, key=_relevance, default=None)
        while best is not None and best.context:
            smallest = sorted(best.context, key=_relevance)[:2]
            if len(smallest) == 2 and \
                    _relevance(smallest[0]) == _relevance(smallest[1]):
                break
            best = smallest[0]
        return best

    def _errors(self, instance, schema, path):
        for key, value in schema.items():
            check = _CHECKS.get(key)
            if check is not None:
                yield from check(self, value, instance, schema, path)


# Each check takes (validator, keyword value, instance, schema, path) and
# yields errors; "then" and the annotations have none of their own.


def _type(v, name, instance, schema, path):
    if not _TYPES[name](instance):
        yield ValidationError(f"{instance!r} is not of type {name!r}",
                              "type", path, schema, instance)


def _properties(v, properties, instance, schema, path):
    if isinstance(instance, dict):
        for name, sub in properties.items():
            if name in instance:
                yield from v._errors(instance[name], sub, path + (name,))


def _required(v, required, instance, schema, path):
    if isinstance(instance, dict):
        for name in required:
            if name not in instance:
                yield ValidationError(f"{name!r} is a required property",
                                      "required", path, schema, instance)


def _additional_properties(v, allowed, instance, schema, path):
    if allowed or not isinstance(instance, dict):
        return
    known = schema.get("properties", {})
    extras = sorted(name for name in instance if name not in known)
    if extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(repr(name) for name in extras)
        yield ValidationError(
            f"Additional properties are not allowed ({names} {verb} unexpected)",
            "additionalProperties", path, schema, instance)


def _items(v, items, instance, schema, path):
    if isinstance(instance, list):
        for i, item in enumerate(instance):
            yield from v._errors(item, items, path + (i,))


def _min_items(v, least, instance, schema, path):
    if isinstance(instance, list) and len(instance) < least:
        message = "should be non-empty" if least == 1 else "is too short"
        yield ValidationError(f"{instance!r} {message}", "minItems", path,
                              schema, instance)


def _max_items(v, most, instance, schema, path):
    if isinstance(instance, list) and len(instance) > most:
        message = "is expected to be empty" if most == 0 else "is too long"
        yield ValidationError(f"{instance!r} {message}", "maxItems", path,
                              schema, instance)


def _minimum(v, least, instance, schema, path):
    if _TYPES["number"](instance) and instance < least:
        yield ValidationError(
            f"{instance!r} is less than the minimum of {least!r}",
            "minimum", path, schema, instance)


def _enum(v, values, instance, schema, path):
    if instance not in values:
        yield ValidationError(f"{instance!r} is not one of {values!r}",
                              "enum", path, schema, instance)


def _const(v, value, instance, schema, path):
    if instance != value:
        yield ValidationError(f"{value!r} was expected", "const", path,
                              schema, instance)


def _pattern(v, pattern, instance, schema, path):
    if isinstance(instance, str) and not v._patterns[pattern].search(instance):
        yield ValidationError(f"{instance!r} does not match {pattern!r}",
                              "pattern", path, schema, instance)


def _any_of(v, branches, instance, schema, path):
    context = []
    for sub in branches:
        errors = list(v._errors(instance, sub, ()))
        if not errors:
            return
        context.extend(errors)
    yield ValidationError(
        f"{instance!r} is not valid under any of the given schemas",
        "anyOf", path, schema, instance, context)


def _all_of(v, branches, instance, schema, path):
    for sub in branches:
        yield from v._errors(instance, sub, path)


def _ref(v, ref, instance, schema, path):
    yield from v._errors(instance, v._refs[ref], path)


def _if(v, condition, instance, schema, path):
    if "then" in schema and next(v._errors(instance, condition, ()), None) is None:
        yield from v._errors(instance, schema["then"], path)


_CHECKS = {
    "type": _type,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "minimum": _minimum,
    "enum": _enum,
    "const": _const,
    "pattern": _pattern,
    "anyOf": _any_of,
    "allOf": _all_of,
    "$ref": _ref,
    "if": _if,
}
