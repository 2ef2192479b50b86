"""Line-oriented problem files and their canonical serialization.

The format mirrors the data model one line per declaration::

    # comment
    domain 1 set {a, b, c}
    domain 2 int [0..9]
    constraint c1 scheme (1,2) tuples {(a,0), (b,1)}
    constraint c2 scheme (1,2) lineq 3*x1 - 5*x2 = 4
    constraint c3 scheme (1,2) leq 1*x1 + 1*x2 <= 7

Variables in linear forms are written ``x<i>`` with ``i`` the domain index;
every scheme index must occur exactly once.  A tuple set holds parenthesised
tuples with exactly one comma between two tuples.  ``parse_csp`` of a
serialized problem is the identity on the canonical form.

Parsing costs one atom parse per distinct atom text per file: ``parse_csp``
keeps a dict from atom text to atom for that one call (never across calls),
and resolves every atom or tuple set through it with a C-level ``map``, so no
Python function runs per atom.

``csp_json`` writes the JSON form of a problem: the same bytes as
``json.dumps(csp_to_obj(csp), indent=2, sort_keys=True)``, built from the
fixed shape instead of through ``json``'s pure-Python indenting encoder.
``trace_json`` writes a run's step rows the same way.  Strings still go
through ``json.dumps`` and integers through ``int.__repr__``, as the encoder
writes them.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from .csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Scheme, SetDomain,
)
from .errors import ConfigError, DataError
from .lattice import atom_key

_INT = re.compile(r"-?\d+")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?x(\d+)\s*")
_GROUP = re.compile(r"\(([^()]*)\)")
_INT_RANGE = re.compile(r"\s*\[\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*\]\s*")
_CONSTRAINT = re.compile(r"scheme\s*(\([^)]*\))\s*(\w+)\s*(.*)")


def _parse_atom(tok: str, where: str):
    tok = tok.strip()
    if _INT.fullmatch(tok):
        return int(tok)
    if _NAME.fullmatch(tok):
        return tok
    raise DataError(f"{where}: bad atom {tok!r}")


def _learn(texts: list[str], where: str, atoms: dict) -> None:
    """Add to ``atoms`` (atom text to atom) each atom text of the
    comma-separated ``texts`` that it lacks, parsed once, in order, so the
    first bad atom is the one reported.  A blank text holds no atom."""
    for g in texts:
        for t in g.split(",") if g.strip() else ():
            if t not in atoms:
                atoms[t] = _parse_atom(t, where)


def _tuples(groups: list[str], atoms: dict) -> frozenset:
    """The tuples written inside the parentheses ``groups`` (a blank group:
    the empty tuple); ``KeyError`` on an atom text not in ``atoms``."""
    get = atoms.__getitem__
    return frozenset([tuple(map(get, g.split(","))) if g.strip() else () for g in groups])


def _parse_atom_set(text: str, where: str, atoms: dict) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise DataError(f"{where}: expected a {{...}} set")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    try:
        return frozenset(map(atoms.__getitem__, inner.split(",")))
    except KeyError:
        _learn([inner], where, atoms)
        return frozenset(map(atoms.__getitem__, inner.split(",")))


def _parse_tuple_set(text: str, where: str, atoms: dict) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise DataError(f"{where}: expected a {{(..),(..)}} set")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    # split around the groups: separators at even positions, group texts at odd
    parts = _GROUP.split(inner)
    seps = parts[0::2]
    leftover = "".join(seps).replace(",", "").strip()
    if leftover:
        raise DataError(f"{where}: unexpected text {leftover!r} in tuple set")
    groups = parts[1::2]
    try:
        tuples = _tuples(groups, atoms)
    except KeyError:
        _learn(groups, where, atoms)
        tuples = _tuples(groups, atoms)
    # exactly one comma between two tuples, none before the first or after
    # the last: with whitespace dropped, the separators read "|,|,|...|"
    if "".join("|".join(seps).split()) != "|" + ",|" * (len(seps) - 2):
        last = len(seps) - 1
        for k, sep in enumerate(seps):
            if sep.count(",") != (1 if 0 < k < last else 0):
                bad = sep.strip() or f"({parts[2 * k + 1]})"
                raise DataError(f"{where}: unexpected text {bad!r} in tuple set")
    return tuples


def _parse_scheme(text: str, where: str) -> Scheme:
    inner = text[1:-1]    # _CONSTRAINT captures the parentheses, no blanks
    try:
        # every entry must hold an index; only "()" is the empty scheme
        return Scheme(inner.split(",") if inner.strip() else ())
    except ValueError:
        raise DataError(f"{where}: bad scheme {text!r}")
    except ConfigError as exc:
        raise DataError(f"{where}: {exc}")


def _parse_linear(text: str, scheme: Scheme, where: str) -> tuple[int, ...]:
    pos = 0
    coeffs: dict[int, int] = {}
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m:
            raise DataError(f"{where}: cannot read linear term at {text[pos:]!r}")
        sign, coeff, var = m.groups()
        if sign is None and not first:
            raise DataError(f"{where}: missing sign before {text[pos:]!r}")
        c = int(coeff) if coeff else 1
        if sign == "-":
            c = -c
        i = int(var)
        if i in coeffs:
            raise DataError(f"{where}: variable x{i} appears twice")
        coeffs[i] = c
        pos = m.end()
        first = False
    if set(coeffs) != set(scheme):
        raise DataError(f"{where}: linear form must mention exactly the scheme variables")
    return tuple(coeffs[i] for i in scheme)


def parse_csp(text: str) -> CSP:
    """Parse a problem file; raises ``DataError`` with the offending line."""
    domains: dict[int, object] = {}
    constraints: list[Constraint] = []
    atoms: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        fields = line.split(None, 2)
        if fields[0] == "domain":
            if len(fields) < 3:
                raise DataError(f"{where}: malformed domain line")
            try:
                index = int(fields[1])
            except ValueError:
                raise DataError(f"{where}: bad domain index {fields[1]!r}")
            if index < 1:
                raise DataError(f"{where}: domain index {index} is below 1")
            if index in domains:
                raise DataError(f"{where}: domain {index} declared twice")
            kind, _, rest = fields[2].partition(" ")
            if kind == "set":
                domains[index] = SetDomain(_parse_atom_set(rest, where, atoms))
            elif kind == "int":
                m = _INT_RANGE.fullmatch(rest)
                if not m:
                    raise DataError(f"{where}: expected int [l..h]")
                domains[index] = IntDomain(int(m.group(1)), int(m.group(2)))
            else:
                raise DataError(f"{where}: unknown domain kind {kind!r}")
        elif fields[0] == "constraint":
            if len(fields) < 3:
                raise DataError(f"{where}: malformed constraint line")
            cid = fields[1]
            m = _CONSTRAINT.match(fields[2])
            if not m:
                raise DataError(f"{where}: expected scheme (...) <kind> ...")
            scheme = _parse_scheme(m.group(1), where)
            kind, rest = m.group(2), m.group(3)
            if kind == "tuples":
                body = ExtensionalBody(_parse_tuple_set(rest, where, atoms))
            elif kind in ("lineq", "leq"):
                op = "=" if kind == "lineq" else "<="
                lhs, sep, rhs = rest.partition(op)
                if not sep:
                    raise DataError(f"{where}: expected '{op}' in {kind} form")
                try:
                    const = int(rhs.strip())
                except ValueError:
                    raise DataError(f"{where}: bad constant {rhs.strip()!r}")
                coeffs = _parse_linear(lhs.strip(), scheme, where)
                body = (LinearEqBody(coeffs, const) if kind == "lineq"
                        else LinearIneqBody(coeffs, const))
            else:
                raise DataError(f"{where}: unknown constraint kind {kind!r}")
            constraints.append(Constraint(cid, scheme, body))
        else:
            raise DataError(f"{where}: unknown declaration {fields[0]!r}")
    if not domains:
        raise DataError("no domains declared")
    n = max(domains)
    if len(domains) != n:
        raise DataError(f"missing domain declarations for index {_gaps(sorted(domains))}")
    return CSP(tuple(domains[i] for i in range(1, n + 1)), tuple(constraints))


def _gaps(declared: list[int]) -> str:
    """The indices from 1 up to the last of ``declared`` (sorted, distinct,
    each at least 1) that it leaves out; a run of three or more is written
    ``first..last``, so the text grows with the runs, not with the indices."""
    out: list[str] = []
    after = 1
    for i in declared:
        if i - after >= 3:
            out.append(f"{after}..{i - 1}")
        else:
            out.extend(map(str, range(after, i)))
        after = i + 1
    return ", ".join(out)


def _linear_text(variables: list[int], coeffs: list[int]) -> str:
    parts = []
    for k, (i, a) in enumerate(zip(variables, coeffs)):
        mag = f"{abs(a)}*x{i}"
        if k == 0:
            parts.append(mag if a >= 0 else f"-{mag}")
        else:
            parts.append(("+ " if a >= 0 else "- ") + mag)
    return " ".join(parts)


def _items_text(items: list) -> str:
    return ",".join(map(str, items))


def serialize_csp(csp: CSP) -> str:
    """Canonical text form of ``csp_to_obj``: domains ascending, atoms and
    tuples sorted."""
    obj = csp_to_obj(csp)
    lines = []
    for d in obj["domains"]:
        if d["kind"] == "set":
            lines.append(f"domain {d['index']} set {{{_items_text(d['values'])}}}")
        else:
            lines.append(f"domain {d['index']} int [{d['lo']}..{d['hi']}]")
    for c in obj["constraints"]:
        head = f"constraint {c['id']} scheme ({_items_text(c['scheme'])}) {c['kind']}"
        if c["kind"] == "tuples":
            tuples = ",".join(f"({_items_text(t)})" for t in c["tuples"])
            lines.append(f"{head} {{{tuples}}}")
        else:
            op = "=" if c["kind"] == "lineq" else "<="
            lines.append(f"{head} {_linear_text(c['scheme'], c['coeffs'])} {op} {c['constant']}")
    return "\n".join(lines) + "\n"


def _atom_json(a) -> str:
    """An atom as ``json.dumps`` writes it."""
    return int.__repr__(a) if type(a) is int else json.dumps(a)


def _array(items: list[str], nl: str) -> str:
    """The JSON array of the item texts ``items``; ``nl`` is a newline and
    the indentation of the line that opens it.  The text is one ``join``:
    the first and last items of the list take the brackets."""
    if not items:
        return "[]"
    inner = nl + "  "
    items[0] = "[" + inner + items[0]
    items[-1] += nl + "]"
    return ("," + inner).join(items)


def _object(fields: list[str], nl: str) -> str:
    """The JSON object of the ``"key": value`` texts ``fields``, given in
    sorted key order; ``nl`` as for ``_array``."""
    inner = nl + "  "
    return f"{{{inner}{(',' + inner).join(fields)}{nl}}}"


class _SortedArrays:
    """JSON arrays of sets of atoms or tuples, the items in ``atom_key``
    order.  Each distinct set's text, and each distinct item's key and text
    (``text_of(item)``), is made once; ``nl`` as for ``_array``."""

    def __init__(self, text_of, nl: str):
        self.text_of = text_of
        self.nl = nl
        self.keys: dict = {}
        self.texts: dict = {}
        self.arrays: dict[frozenset, str] = {}

    def __call__(self, items: frozenset) -> str:
        array = self.arrays.get(items)
        if array is None:
            for x in items.difference(self.texts):
                self.keys[x] = atom_key(x)
                self.texts[x] = self.text_of(x)
            ordered = sorted(items, key=self.keys.__getitem__)
            array = _array(list(map(self.texts.__getitem__, ordered)), self.nl)
            self.arrays[items] = array
        return array


def csp_json(csp: CSP, pad: str = "") -> str:
    """``json.dumps(csp_to_obj(csp), indent=2, sort_keys=True)`` with every
    line after the first indented by ``pad``, written straight from the
    fixed shape: each flat list is one ``join``, and each distinct atom,
    tuple, atom set and tuple set is sorted and written once per call."""
    nl0, nl1, nl2, nl3, nl4 = ("\n" + pad + "  " * k for k in range(5))
    ints = int.__repr__
    values = _SortedArrays(_atom_json, nl3)
    tuples = _SortedArrays(lambda t: _array(list(map(_atom_json, t)), nl4), nl3)
    constraints = []
    for c in csp.constraints:
        body = c.body
        cid = f'"id": {json.dumps(c.cid)}'
        scheme = f'"scheme": {_array(list(map(ints, c.scheme)), nl3)}'
        if isinstance(body, ExtensionalBody):
            fields = [cid, '"kind": "tuples"', scheme,
                      f'"tuples": {tuples(body.tuples)}']
        else:
            kind = "lineq" if isinstance(body, LinearEqBody) else "leq"
            fields = [f'"coeffs": {_array(list(map(ints, body.coeffs)), nl3)}',
                      f'"constant": {ints(body.constant)}', cid,
                      f'"kind": "{kind}"', scheme]
        constraints.append(_object(fields, nl2))
    domains = []
    for i, d in enumerate(csp.domains, start=1):
        if isinstance(d, SetDomain):
            fields = [f'"index": {i}', '"kind": "set"',
                      f'"values": {values(d.values)}']
        else:
            fields = [f'"hi": {ints(d.hi)}', f'"index": {i}', '"kind": "int"',
                      f'"lo": {ints(d.lo)}']
        domains.append(_object(fields, nl2))
    return "".join([f'{{{nl1}"constraints": ', _array(constraints, nl1),
                    f',{nl1}"domains": ', _array(domains, nl1), nl0, "}"])


def trace_json(steps: Iterable[tuple[str, tuple[int, ...]]], pad: str = "") -> str:
    """``json.dumps(rows, indent=2, sort_keys=True)`` of one row per step,
    ``{"step": k, "fn": fid, "changed": 0 or 1, "comps": [...]}`` with ``k``
    counted from 1, every line after the first indented by ``pad``.  Written
    straight from the fixed shape: each distinct fid goes through
    ``json.dumps`` once, and each distinct list of changed components is
    written once."""
    nl0, nl1, nl2 = ("\n" + pad + "  " * k for k in range(3))
    ints = int.__repr__
    fids: dict[str, str] = {}
    comps: dict[tuple, str] = {}
    rows = []
    for k, (fid, changed) in enumerate(steps, start=1):
        fn = fids.get(fid)
        if fn is None:
            fn = fids[fid] = json.dumps(fid)
        text = comps.get(changed)
        if text is None:
            text = comps[changed] = _array(list(map(ints, changed)), nl2)
        rows.append(_object([f'"changed": {1 if changed else 0}', f'"comps": {text}',
                             f'"fn": {fn}', f'"step": {k}'], nl1))
    return _array(rows, nl0)


def csp_to_obj(csp: CSP) -> dict:
    """The JSON-ready mirror of the text model."""
    domains = []
    for i, d in enumerate(csp.domains, start=1):
        if isinstance(d, SetDomain):
            domains.append({"index": i, "kind": "set",
                            "values": sorted(d.values, key=atom_key)})
        else:
            domains.append({"index": i, "kind": "int", "lo": d.lo, "hi": d.hi})
    constraints = []
    for c in csp.constraints:
        entry = {"id": c.cid, "scheme": list(c.scheme)}
        if isinstance(c.body, ExtensionalBody):
            entry["kind"] = "tuples"
            entry["tuples"] = [list(t) for t in sorted(c.body.tuples, key=atom_key)]
        else:
            entry["kind"] = "lineq" if isinstance(c.body, LinearEqBody) else "leq"
            entry["coeffs"] = list(c.body.coeffs)
            entry["constant"] = c.body.constant
        constraints.append(entry)
    return {"domains": domains, "constraints": constraints}
