"""Experiment config files: parsing, validation, canonical serialization.

The format is a line-oriented, human-readable key-value text.  Grammar
(EBNF; tokens are whitespace-separated, ``#`` starts a comment):

    config       = [ base_line ] { line } ;
    base_line    = "base" name ;              (* a built-in config's name *)
    line         = blank | comment | sim_line | island_block | link_line | ring_line ;
    sim_line     = "sim" { kv } ;
    island_block = "island" int { island_stmt } "end" ;
    island_stmt  = "neurons" int
                 | "neuron_preset" name
                 | "synapse_preset" name
                 | "noise" ("white" | "pink") { kv }
                 | "edge" int "->" int ("exc" | "inh")
                 | crossbar_stmt ;
    crossbar_stmt = "crossbar" kv kv kv ;     (* edges=, inh=, seed= *)
    link_line    = "link" int "." int "->" int "." intlist { kv } ;
    ring_line    = "ring" { kv } ;
    intlist      = "[" int { "," int } "]" ;
    kv           = key "=" value ;

``base`` may only be a config's first statement: the statements of the named
built-in config (``builtin_names``) come first, then the config's own, so a
ring config is its base plus one ``ring`` line.  A built-in used as a base
has no base itself.  Island indices must be declared in order 0, 1, 2, ...
Every island must declare exactly one ``noise`` source.  ``sim`` lines carry
run defaults (``duration``, ``dt``, ``seed``) that the CLI may override.
A network has one ring, and ``ring`` lines merge the way ``sim`` lines do:
a later ``ring`` line sets only the keys it names, and a key no line names
takes its default (links 0, fanout 1, multiplicity 1, seed 0), so
``ring links=3`` appended to a ring config changes just its links.  After
parsing, ``build_ring`` adds the ring's links once, after those of the
``link`` lines.  An island's crossbar comes from either its
``edge`` lines or one ``crossbar`` line, never both: at the island's
``end``, ``crossbar`` becomes ``random_crossbar(n, edges, inh, seed)``
for the island's final neuron count ``n``.  Canonical
serialization therefore emits explicit ``link`` and ``edge`` lines and never
``base``, ``ring`` or ``crossbar`` lines; parse(serialize(spec)) reproduces
the spec exactly.

Recognized kv keys: sim: duration, dt, seed; noise: density or rms (one of
them), band (``lo:hi``), seed, stream; link: multiplicity; ring: links,
fanout, multiplicity, seed; crossbar: edges, inh, seed (all three required).
Every ``seed``, ``stream`` and ``multiplicity`` value and every ring and
crossbar value must be written as an integer (``seed=1.0`` is an error).  A
value that is malformed, or that ``NoiseSpec`` or ``random_crossbar``
rejects, is a ConfigSyntaxError at its line; a ring that ``build_ring``
rejects is one at the last ``ring`` line.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .noise import DEFAULT_BAND, NoiseSpec, density_for_rms
from .topology import (
    InterIslandLink,
    IslandSpec,
    NetworkSpec,
    TopologyError,
    build_ring,
    random_crossbar,
)

__all__ = [
    "ConfigSyntaxError",
    "parse_config",
    "parse_document",
    "serialize_config",
    "load_builtin",
    "builtin_names",
]


class ConfigSyntaxError(ValueError):
    """Malformed config text; carries 1-based line and column."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass
class _Tok:
    text: str
    line: int
    col: int


def _tokenize_line(raw: str, lineno: int) -> list[_Tok]:
    toks: list[_Tok] = []
    i = 0
    while i < len(raw):
        if raw[i].isspace():
            i += 1
            continue
        if raw[i] == "#":
            break
        j = i
        while j < len(raw) and not raw[j].isspace() and raw[j] != "#":
            j += 1
        toks.append(_Tok(raw[i:j], lineno, i + 1))
        i = j
    return toks


def _statements(text: str) -> list[list[_Tok]]:
    """The tokens of each non-blank line of ``text``."""
    return [toks for lineno, raw in enumerate(text.splitlines(), start=1) if (toks := _tokenize_line(raw, lineno))]


def _base(toks: list[_Tok]) -> list[list[_Tok]]:
    """The statements of the built-in config named by ``base <name>``; a
    built-in that starts with a base cannot be one."""
    if len(toks) != 2:
        raise ConfigSyntaxError(toks[0].line, toks[0].col, "usage: base <built-in name>")
    name = toks[1]
    if name.text not in builtin_names():
        raise ConfigSyntaxError(name.line, name.col, f"no built-in config {name.text!r}; available: {builtin_names()}")
    statements = _statements(load_builtin(name.text))
    if statements and statements[0][0].text == "base":
        raise ConfigSyntaxError(name.line, name.col, f"built-in config {name.text!r} has a base of its own")
    return statements


def _band(text: str) -> tuple[float, float]:
    lo, hi = text.split(":")
    return float(lo), float(hi)


_REQUIRED = object()
_KINDS = {int: "an integer", float: "a number", _band: "lo:hi"}


def _value(kind, tok: _Tok, what: str, text: str | None = None):
    """``kind(text)`` for ``kind`` int, float or _band, ``text`` defaulting
    to the token's; a text that ``kind`` rejects is a ConfigSyntaxError at ``tok``."""
    text = tok.text if text is None else text
    try:
        return kind(text)
    except ValueError:
        raise ConfigSyntaxError(tok.line, tok.col, f"{what} must be {_KINDS[kind]}, got {text!r}") from None


def _parse_kvs(head: _Tok, toks: list[_Tok], keys: dict[str, tuple]) -> dict:
    """``key=value`` pairs of the statement ``head``: ``keys`` maps each allowed
    key to its ``(type, default)``, type int, float or _band, and a default of
    _REQUIRED marks a key the statement needs."""
    out = {key: default for key, (_, default) in keys.items()}
    seen: set[str] = set()
    for tok in toks:
        key, eq, text = tok.text.partition("=")
        if not eq:
            raise ConfigSyntaxError(tok.line, tok.col, f"expected key=value, got {tok.text!r}")
        if key not in keys:
            raise ConfigSyntaxError(tok.line, tok.col, f"unknown key {key!r} (allowed: {sorted(keys)})")
        if key in seen:
            raise ConfigSyntaxError(tok.line, tok.col, f"duplicate key {key!r}")
        seen.add(key)
        out[key] = _value(keys[key][0], tok, key, text)
    missing = [key for key, val in out.items() if val is _REQUIRED]
    if missing:
        raise ConfigSyntaxError(head.line, head.col, f"{head.text} requires {', '.join(missing)}")
    return out


def _parse_intlist(tok: _Tok) -> list[int]:
    text = tok.text
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigSyntaxError(tok.line, tok.col, f"expected [i,j,...], got {text!r}")
    body = text[1:-1]
    if not body:
        raise ConfigSyntaxError(tok.line, tok.col, "target list must be non-empty")
    return [_value(int, tok, "target index", part) for part in body.split(",")]


def _parse_noise(toks: list[_Tok], island_idx: int) -> NoiseSpec:
    head = toks[0]
    if len(toks) < 2:
        raise ConfigSyntaxError(head.line, head.col, "usage: noise white|pink density=|rms= ...")
    kvs = _parse_kvs(head, toks[2:], {"density": (float, None), "rms": (float, None), "band": (_band, DEFAULT_BAND),
                                      "seed": (int, 0), "stream": (int, island_idx)})
    if (kvs["density"] is None) == (kvs["rms"] is None):
        raise ConfigSyntaxError(head.line, head.col, "noise takes one of density= and rms=")
    try:
        density = kvs["density"] if kvs["rms"] is None else density_for_rms(kvs["rms"], kvs["band"])
        return NoiseSpec(kind=toks[1].text, density=density, band=kvs["band"], seed=kvs["seed"],
                         stream_id=kvs["stream"])
    except ValueError as exc:
        raise ConfigSyntaxError(head.line, head.col, str(exc)) from None


def parse_document(text: str) -> tuple[NetworkSpec, dict]:
    """Parse config text into a validated NetworkSpec plus sim hints.

    Returns ``(network, hints)`` where hints may contain ``duration``,
    ``dt`` and ``seed`` from ``sim`` lines.  Raises ConfigSyntaxError for
    malformed text and TopologyError (with the offending path) for semantic
    problems.
    """
    islands: list[IslandSpec] = []
    noises: list[NoiseSpec | None] = []
    links: list[InterIslandLink] = []
    ring = {"links": 0, "fanout": 1, "multiplicity": 1, "seed": 0}
    ring_head: _Tok | None = None
    hints: dict = {}

    statements = _statements(text)
    if statements and statements[0][0].text == "base":
        statements[:1] = _base(statements[0])
    in_island = False
    cur: dict = {}

    for toks in statements:
        head = toks[0]

        if in_island:
            if head.text == "end":
                if len(toks) > 1:
                    raise ConfigSyntaxError(toks[1].line, toks[1].col, "unexpected token after 'end'")
                edges = tuple(cur["edges"])
                if cur["crossbar"]:
                    xhead, xb = cur["crossbar"]
                    try:
                        edges = random_crossbar(cur["n_neurons"], xb["edges"], xb["inh"], xb["seed"])
                    except ValueError as exc:
                        raise ConfigSyntaxError(xhead.line, xhead.col, str(exc)) from None
                islands.append(
                    IslandSpec(
                        n_neurons=cur["n_neurons"],
                        crossbar=edges,
                        neuron_preset=cur["neuron_preset"],
                        synapse_preset=cur["synapse_preset"],
                    )
                )
                noises.append(cur["noise"])
                in_island = False
            elif head.text == "neurons":
                if len(toks) != 2:
                    raise ConfigSyntaxError(head.line, head.col, "usage: neurons <count>")
                cur["n_neurons"] = _value(int, toks[1], "neuron count")
            elif head.text in ("neuron_preset", "synapse_preset"):
                if len(toks) != 2:
                    raise ConfigSyntaxError(head.line, head.col, f"usage: {head.text} <name>")
                cur[head.text] = toks[1].text
            elif head.text == "noise":
                if cur["noise"] is not None:
                    raise TopologyError(f"island[{cur['index']}].noise", "island declares more than one noise source")
                cur["noise"] = _parse_noise(toks, cur["index"])
            elif cur["crossbar"] and head.text in ("edge", "crossbar") or cur["edges"] and head.text == "crossbar":
                raise ConfigSyntaxError(head.line, head.col, "an island's crossbar comes from edge lines or one crossbar line")
            elif head.text == "crossbar":
                keys = dict.fromkeys(("edges", "inh", "seed"), (int, _REQUIRED))
                cur["crossbar"] = (head, _parse_kvs(head, toks[1:], keys))
            elif head.text == "edge":
                if len(toks) != 5 or toks[2].text != "->":
                    raise ConfigSyntaxError(head.line, head.col, "usage: edge <pre> -> <post> exc|inh")
                pre = _value(int, toks[1], "pre index")
                post = _value(int, toks[3], "post index")
                pol = toks[4].text
                if pol not in ("exc", "inh"):
                    raise ConfigSyntaxError(toks[4].line, toks[4].col, f"polarity must be exc|inh, got {pol!r}")
                cur["edges"].append((pre, post, pol))
            else:
                raise ConfigSyntaxError(head.line, head.col, f"unknown island statement {head.text!r}")
            continue

        if head.text == "island":
            if len(toks) != 2:
                raise ConfigSyntaxError(head.line, head.col, "usage: island <index>")
            idx = _value(int, toks[1], "island index")
            if idx != len(islands):
                raise TopologyError(f"island[{idx}]", f"islands must be declared in order; expected index {len(islands)}")
            cur = {
                "index": idx,
                "n_neurons": 16,
                "edges": [],
                "crossbar": None,
                "neuron_preset": "fast-mode",
                "synapse_preset": "fast-dpi",
                "noise": None,
            }
            in_island = True
        elif head.text == "sim":
            kvs = _parse_kvs(head, toks[1:], {"duration": (float, None), "dt": (float, None), "seed": (int, None)})
            hints.update((key, val) for key, val in kvs.items() if val is not None)
        elif head.text == "link":
            # link S.N -> D.[t1,t2,...] [multiplicity=m]
            if len(toks) < 4 or toks[2].text != "->":
                raise ConfigSyntaxError(head.line, head.col, "usage: link <src>.<neuron> -> <dst>.[t,...]")
            src_part = toks[1].text.split(".")
            if len(src_part) != 2:
                raise ConfigSyntaxError(toks[1].line, toks[1].col, f"expected <island>.<neuron>, got {toks[1].text!r}")
            dst_part = toks[3].text.split(".", 1)
            if len(dst_part) != 2:
                raise ConfigSyntaxError(toks[3].line, toks[3].col, f"expected <island>.[targets], got {toks[3].text!r}")
            src_isl = _value(int, toks[1], "src island", src_part[0])
            src_neu = _value(int, toks[1], "src neuron", src_part[1])
            dst_isl = _value(int, toks[3], "dst island", dst_part[0])
            targets = _parse_intlist(_Tok(dst_part[1], toks[3].line, toks[3].col))
            mult = _parse_kvs(head, toks[4:], {"multiplicity": (int, 1)})["multiplicity"]
            links.append(
                InterIslandLink(
                    src_island=src_isl,
                    dst_island=dst_isl,
                    src_neuron=src_neu,
                    targets=tuple(targets),
                    multiplicity=mult,
                )
            )
        elif head.text == "ring":
            kvs = _parse_kvs(head, toks[1:], dict.fromkeys(ring, (int, None)))
            ring.update((key, val) for key, val in kvs.items() if val is not None)
            ring_head = head
        elif head.text == "base":
            raise ConfigSyntaxError(head.line, head.col, "base must be a config's first statement")
        else:
            raise ConfigSyntaxError(head.line, head.col, f"unknown statement {head.text!r}")

    if in_island:
        raise ConfigSyntaxError(len(text.splitlines()), 1, "unterminated island block (missing 'end')")
    if not islands:
        raise TopologyError("network", "config declares no islands")
    for i, ns in enumerate(noises):
        if ns is None:
            raise TopologyError(f"island[{i}].noise", "island declares no noise source")

    network = NetworkSpec(islands=tuple(islands), noise=tuple(noises), links=tuple(links))
    network.validate()
    if ring_head is not None:
        try:
            network = build_ring(
                network,
                links_per_pair=ring["links"],
                fanout=ring["fanout"],
                multiplicity=ring["multiplicity"],
                seed=ring["seed"],
            )
        except ValueError as exc:
            raise ConfigSyntaxError(ring_head.line, ring_head.col, str(exc)) from None
    return network, hints


def parse_config(text: str) -> NetworkSpec:
    """Parse config text into a validated NetworkSpec (sim hints dropped)."""
    network, _ = parse_document(text)
    return network


def serialize_config(network: NetworkSpec) -> str:
    """Canonical text form of a network (no ``sim`` line);
    parse_config(serialize_config(s)) equals s."""
    out: list[str] = []
    for idx, (isl, ns) in enumerate(zip(network.islands, network.noise)):
        out.append(f"island {idx}")
        out.append(f"  neurons {isl.n_neurons}")
        out.append(f"  neuron_preset {isl.neuron_preset}")
        out.append(f"  synapse_preset {isl.synapse_preset}")
        out.append(
            f"  noise {ns.kind} density={ns.density!r} band={ns.band[0]!r}:{ns.band[1]!r}"
            f" seed={ns.seed} stream={ns.stream_id}"
        )
        for pre, post, pol in isl.crossbar:
            out.append(f"  edge {pre} -> {post} {pol}")
        out.append("end")
    for link in network.links:
        tlist = ",".join(str(t) for t in link.targets)
        out.append(
            f"link {link.src_island}.{link.src_neuron} -> {link.dst_island}.[{tlist}]"
            f" multiplicity={link.multiplicity}"
        )
    return "\n".join(out) + "\n"


def builtin_names() -> list[str]:
    """Names of the experiment configs shipped with the package."""
    pkg = resources.files("spikeislands") / "configs"
    return sorted(p.name[: -len(".cfg")] for p in pkg.iterdir() if p.name.endswith(".cfg"))


def load_builtin(name: str) -> str:
    """Text of a shipped experiment config (e.g. 'fig5A_nobond')."""
    path = resources.files("spikeislands") / "configs" / f"{name}.cfg"
    if not path.is_file():
        raise FileNotFoundError(f"no built-in config {name!r}; available: {builtin_names()}")
    return path.read_text(encoding="utf-8")
