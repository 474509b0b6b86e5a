"""Helpers shared by the workloads: canonical output hashing, tolerant
comparison of recorded values, and closed forms used as oracles.

Nothing here imports finsym, so the client process can use it before any
finsym import is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from itertools import product as iproduct
from math import comb

FLOAT_REL_TOL = 1e-12
_DECIMAL = re.compile(r"(-?\d+\.\d+(?:[eE][-+]?\d+)?)")
NONFINITE = re.compile(r"\b(inf|nan|Infinity|NaN)\b", re.IGNORECASE)


class Unchecked:
    """What a workload's ``check`` returns when no live oracle fits a job.

    ``value`` is the part of the output that does not depend on choices the
    program is free to make (a basis, a witness, an order of classes); the
    gate compares it with the value recorded in expected.json instead.
    """

    def __init__(self, value):
        self.value = value


def job_id(spec) -> str:
    """Stable key of a job spec; also its key in expected.json."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def digest(output) -> str:
    """sha256 of the canonical JSON form of an output (floats by repr)."""
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def has_float(obj) -> bool:
    if isinstance(obj, float):
        return True
    if isinstance(obj, dict):
        return any(has_float(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(has_float(v) for v in obj)
    return False


def has_decimal(obj) -> bool:
    """A printed float inside a CLI result."""
    return isinstance(obj, dict) and bool(_DECIMAL.search(obj.get("stdout", "")))


def all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(v) for v in obj)
    return True


def close(a, b, rel=FLOAT_REL_TOL) -> bool:
    """Structural equality with a relative tolerance on floats.

    Exact values (ints, strings, fractions as "a/b") must match exactly;
    floats may differ in the last bits, as BLAS kernels on another CPU
    would make them.
    """
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
    if isinstance(a, str) and isinstance(b, str) and a != b:
        # Printed output: decimals compare with the tolerance, the rest exactly.
        pa, pb = _DECIMAL.split(a), _DECIMAL.split(b)
        return len(pa) == len(pb) and all(
            x == y if i % 2 == 0 else close(float(x), float(y), rel)
            for i, (x, y) in enumerate(zip(pa, pb)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y, rel) for x, y in zip(a, b))
    return a == b


def rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * max(abs(a), abs(b))


def frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Abelian groups named in invariant-factor form, e.g. "Z2xZ4".
# ---------------------------------------------------------------------------


def factors(name: str) -> tuple[int, ...]:
    return tuple(int(part[1:]) for part in name.split("x"))


def group_order(name: str) -> int:
    return math.prod(factors(name))


def elements(name: str):
    return list(iproduct(*(range(n) for n in factors(name))))


def add(name: str, x, y):
    return tuple((a + b) % n for a, b, n in zip(x, y, factors(name)))


def elementary_divisors(orders) -> list[int]:
    """Sorted prime-power decomposition of prod Z_{orders}."""
    out = []
    for n in orders:
        p = 2
        while n > 1:
            if n % p == 0:
                q = 1
                while n % p == 0:
                    n //= p
                    q *= p
                out.append(q)
            p += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Complex descriptors: ["torus", 3], ["surface", 2], ["sphere", 4],
# ["rp", 3], ["klein"], ["product", d1, d2].  Built inside the timed job.
# ---------------------------------------------------------------------------


def build_complex(desc, complexes):
    if desc[0] == "product":
        return complexes.product(build_complex(desc[1], complexes),
                                 build_complex(desc[2], complexes))
    return complexes.preset(desc[0], *desc[1:])


def betti(desc):
    """Integral Betti numbers b_0..b_top, or None when H_*(M; Z) has torsion.

    For a torsion-free complex H^q(M; Z_m) = Z_m^{b_q} (universal
    coefficients), and products follow Kuenneth without Tor terms.
    """
    kind = desc[0]
    if kind == "torus":
        return [comb(desc[1], q) for q in range(desc[1] + 1)]
    if kind == "sphere":
        return [1] + [0] * (desc[1] - 1) + [1]
    if kind == "surface":
        return [1, 0, 1] if desc[1] == 0 else [1, 2 * desc[1], 1]
    if kind == "circle":
        return [1, 1]
    if kind == "product":
        a, b = betti(desc[1]), betti(desc[2])
        if a is None or b is None:
            return None
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out
    return None


def cohomology_orders(desc, coeffs: str, q: int):
    """Cyclic orders of H^q(desc; coeffs) for torsion-free desc, else None."""
    b = betti(desc)
    if b is None:
        return None
    bq = b[q] if 0 <= q < len(b) else 0
    return [m for m in factors(coeffs) for _ in range(bq)]


def em_partition_closed_form(desc, coeffs: str, n: int):
    """prod_q |H^{n-q}|^{(-1)^q} from Betti numbers, or None."""
    b = betti(desc)
    if b is None:
        return None
    order = group_order(coeffs)
    value = Fraction(1)
    for q in range(n + 1):
        deg = n - q
        h = order ** (b[deg] if deg < len(b) else 0)
        value *= h if q % 2 == 0 else Fraction(1, h)
    return value


# Character degrees of the nonabelian presets, for Frobenius-Mednykh:
# Z(Sigma_g) = sum over irreps chi of (|G| / chi(1))^(2g - 2).
CHARACTER_DEGREES = {
    "S3": (1, 1, 2),
    "D4": (1, 1, 1, 1, 2),
    "Q8": (1, 1, 1, 1, 2),
    "Z2xZ2": (1, 1, 1, 1),
}
CLASS_SIZES = {"S3": [1, 2, 3], "D4": [1, 1, 2, 2, 2], "Q8": [1, 1, 2, 2, 2]}


def mednykh(group: str, genus: int) -> Fraction:
    degrees = CHARACTER_DEGREES[group]
    order = sum(d * d for d in degrees)
    return sum((Fraction(order, d) ** (2 * genus - 2) for d in degrees), Fraction(0))
