"""JSON spec writers for tests: the forms `weights_from_json`,
`measure1d_from_json` and `grid_from_json` read, with every rational as
`format_rational` prints it.  The library only reads specs, so the writers
live here."""

from shiftlab.exactnum import format_rational
from shiftlab.measures import Measure1D
from shiftlab.sfc import SFCParams
from shiftlab.shift1d import _TAIL_RULES, WeightSeq


def weights_json(w: WeightSeq) -> dict:
    tail: dict[str, object] = {"kind": w.tail.kind}
    value = w.tail.value
    if value is not None:
        tail["value"] = int(value) if _TAIL_RULES[w.tail.kind].value == "integer" else format_rational(value)
    return {
        "prefix_sq": [format_rational(v) for v in w.prefix_sq],
        "tail": tail,
    }


def measure_json(mu: Measure1D) -> dict:
    return {
        "atoms": [[format_rational(x), format_rational(m)] for x, m in mu.atoms],
        "segments": [
            {
                "coeffs": [format_rational(c) for c in seg.coeffs],
                "lo": format_rational(seg.lo),
                "hi": format_rational(seg.hi),
            }
            for seg in mu.segments
        ],
    }


def sfc_grid_json(p: SFCParams) -> dict:
    """The sfc grid spec of p, with its restricted column measure eta1."""
    return {
        "model": "sfc",
        "xi": measure_json(p.xi),
        "eta1": measure_json(p.eta1),
        "a_sq": format_rational(p.a_sq),
        "y0_sq": format_rational(p.y0_sq),
    }
