"""Experiment config files: parsing, validation, canonical serialization.

The format is a line-oriented, human-readable key-value text.  Grammar
(EBNF; tokens are whitespace-separated, ``#`` starts a comment):

    config       = { line } ;
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

Island indices must be declared in order 0, 1, 2, ...  Every island must
declare exactly one ``noise`` source.  ``sim`` lines carry run defaults
(``duration``, ``dt``, ``seed``) that the CLI may override.  ``ring`` lines
are constructor shorthand: after parsing, ``build_ring`` is applied with the
given ``links``/``fanout``/``multiplicity``/``seed``, producing explicit
links.  An island's crossbar comes from either its ``edge`` lines or one
``crossbar`` line, never both: at the island's ``end``, ``crossbar`` becomes
``random_crossbar(n, edges, inh, seed, allow_self=True)`` for the island's
final neuron count ``n``.  Canonical serialization therefore emits explicit
``link`` and ``edge`` lines and never ``ring`` or ``crossbar`` lines;
parse(serialize(spec)) reproduces the spec exactly.

Recognized kv keys: sim: duration, dt, seed; noise: density, rms, band
(``lo:hi``), seed, stream; link: multiplicity; ring: links, fanout,
multiplicity, seed; crossbar: edges, inh, seed (all three required).
Values of ``ring`` and ``crossbar`` keys are integers; values that
``build_ring`` or ``random_crossbar`` rejects are a ConfigSyntaxError at
their line.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .noise import NoiseSpec, density_for_rms
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


def _parse_int(tok: _Tok, what: str) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise ConfigSyntaxError(tok.line, tok.col, f"expected integer {what}, got {tok.text!r}") from None


def _parse_float(text: str, tok: _Tok, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigSyntaxError(tok.line, tok.col, f"expected number for {what}, got {text!r}") from None


def _parse_kvs(toks: list[_Tok], allowed: set[str]) -> dict[str, tuple[str, _Tok]]:
    out: dict[str, tuple[str, _Tok]] = {}
    for tok in toks:
        if "=" not in tok.text:
            raise ConfigSyntaxError(tok.line, tok.col, f"expected key=value, got {tok.text!r}")
        key, val = tok.text.split("=", 1)
        if key not in allowed:
            raise ConfigSyntaxError(tok.line, tok.col, f"unknown key {key!r} (allowed: {sorted(allowed)})")
        if key in out:
            raise ConfigSyntaxError(tok.line, tok.col, f"duplicate key {key!r}")
        out[key] = (val, tok)
    return out


def _parse_int_kvs(head: _Tok, toks: list[_Tok], defaults: dict[str, int | None]) -> dict[str, int]:
    """Integer ``key=value`` pairs over the keys of ``defaults``; a None default marks a required key."""
    out = dict(defaults)
    for key, (val, tok) in _parse_kvs(toks, set(defaults)).items():
        out[key] = _parse_int(_Tok(val, tok.line, tok.col), key)
    missing = [key for key, val in out.items() if val is None]
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
    out = []
    for part in body.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise ConfigSyntaxError(tok.line, tok.col, f"bad target index {part!r}") from None
    return out


def _parse_noise(toks: list[_Tok], island_idx: int) -> NoiseSpec:
    if not toks:
        raise ConfigSyntaxError(0, 0, "noise requires a kind")
    kind_tok = toks[0]
    if kind_tok.text not in ("white", "pink"):
        raise ConfigSyntaxError(kind_tok.line, kind_tok.col, f"noise kind must be white|pink, got {kind_tok.text!r}")
    kvs = _parse_kvs(toks[1:], {"density", "rms", "band", "seed", "stream"})
    band = (10.0, 5e6)
    if "band" in kvs:
        val, tok = kvs["band"]
        parts = val.split(":")
        if len(parts) != 2:
            raise ConfigSyntaxError(tok.line, tok.col, f"band must be lo:hi, got {val!r}")
        band = (_parse_float(parts[0], tok, "band lo"), _parse_float(parts[1], tok, "band hi"))
    if "density" in kvs and "rms" in kvs:
        _, tok = kvs["rms"]
        raise ConfigSyntaxError(tok.line, tok.col, "give density or rms, not both")
    if "density" in kvs:
        val, tok = kvs["density"]
        density = _parse_float(val, tok, "density")
    elif "rms" in kvs:
        val, tok = kvs["rms"]
        density = density_for_rms(_parse_float(val, tok, "rms"), band)
    else:
        raise ConfigSyntaxError(kind_tok.line, kind_tok.col, "noise requires density= or rms=")
    seed = 0
    stream = island_idx
    if "seed" in kvs:
        val, tok = kvs["seed"]
        seed = int(_parse_float(val, tok, "seed"))
    if "stream" in kvs:
        val, tok = kvs["stream"]
        stream = int(_parse_float(val, tok, "stream"))
    return NoiseSpec(kind=kind_tok.text, density=density, band=band, seed=seed, stream_id=stream)


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
    rings: list[tuple[_Tok, dict]] = []
    hints: dict = {}

    lines = text.splitlines()
    in_island = False
    cur: dict = {}

    for lineno, raw in enumerate(lines, start=1):
        toks = _tokenize_line(raw, lineno)
        if not toks:
            continue
        head = toks[0]

        if in_island:
            if head.text == "end":
                if len(toks) > 1:
                    raise ConfigSyntaxError(toks[1].line, toks[1].col, "unexpected token after 'end'")
                edges = tuple(cur["edges"])
                if cur["crossbar"]:
                    xhead, xb = cur["crossbar"]
                    try:
                        edges = random_crossbar(cur["n_neurons"], xb["edges"], xb["inh"], xb["seed"], allow_self=True)
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
                cur["n_neurons"] = _parse_int(toks[1], "neuron count")
            elif head.text in ("neuron_preset", "synapse_preset"):
                if len(toks) != 2:
                    raise ConfigSyntaxError(head.line, head.col, f"usage: {head.text} <name>")
                cur[head.text] = toks[1].text
            elif head.text == "noise":
                if cur["noise"] is not None:
                    raise TopologyError(f"island[{cur['index']}].noise", "island declares more than one noise source")
                cur["noise"] = _parse_noise(toks[1:], cur["index"])
            elif cur["crossbar"] and head.text in ("edge", "crossbar") or cur["edges"] and head.text == "crossbar":
                raise ConfigSyntaxError(head.line, head.col, "an island's crossbar comes from edge lines or one crossbar line")
            elif head.text == "crossbar":
                cur["crossbar"] = (head, _parse_int_kvs(head, toks[1:], {"edges": None, "inh": None, "seed": None}))
            elif head.text == "edge":
                if len(toks) != 5 or toks[2].text != "->":
                    raise ConfigSyntaxError(head.line, head.col, "usage: edge <pre> -> <post> exc|inh")
                pre = _parse_int(toks[1], "pre index")
                post = _parse_int(toks[3], "post index")
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
            idx = _parse_int(toks[1], "island index")
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
            kvs = _parse_kvs(toks[1:], {"duration", "dt", "seed"})
            for key, (val, tok) in kvs.items():
                num = _parse_float(val, tok, key)
                hints[key] = int(num) if key == "seed" else num
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
            src_isl = _parse_int(_Tok(src_part[0], toks[1].line, toks[1].col), "src island")
            src_neu = _parse_int(_Tok(src_part[1], toks[1].line, toks[1].col), "src neuron")
            dst_isl = _parse_int(_Tok(dst_part[0], toks[3].line, toks[3].col), "dst island")
            targets = _parse_intlist(_Tok(dst_part[1], toks[3].line, toks[3].col))
            kvs = _parse_kvs(toks[4:], {"multiplicity"})
            mult = 1
            if "multiplicity" in kvs:
                val, tok = kvs["multiplicity"]
                mult = int(_parse_float(val, tok, "multiplicity"))
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
            rings.append((head, _parse_int_kvs(head, toks[1:], {"links": 0, "fanout": 1, "multiplicity": 1, "seed": 0})))
        else:
            raise ConfigSyntaxError(head.line, head.col, f"unknown statement {head.text!r}")

    if in_island:
        raise ConfigSyntaxError(len(lines), 1, "unterminated island block (missing 'end')")
    if not islands:
        raise TopologyError("network", "config declares no islands")
    for i, ns in enumerate(noises):
        if ns is None:
            raise TopologyError(f"island[{i}].noise", "island declares no noise source")

    network = NetworkSpec(islands=tuple(islands), noise=tuple(noises), links=tuple(links))
    network.validate()
    for head, ring in rings:
        try:
            network = build_ring(
                network,
                links_per_pair=ring["links"],
                fanout=ring["fanout"],
                multiplicity=ring["multiplicity"],
                seed=ring["seed"],
            )
        except ValueError as exc:
            raise ConfigSyntaxError(head.line, head.col, str(exc)) from None
    return network, hints


def parse_config(text: str) -> NetworkSpec:
    """Parse config text into a validated NetworkSpec (sim hints dropped)."""
    network, _ = parse_document(text)
    return network


def serialize_config(network: NetworkSpec, hints: dict | None = None) -> str:
    """Canonical text form; parse_config(serialize_config(s)) equals s."""
    out: list[str] = []
    if hints:
        parts = " ".join(f"{k}={hints[k]!r}" for k in ("duration", "dt", "seed") if k in hints)
        out.append(f"sim {parts}")
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
