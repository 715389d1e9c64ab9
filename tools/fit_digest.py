"""Print one SHA-256 over every ``FitResult`` field of a fixed table of fits.

    python tools/fit_digest.py SRC [--list]

SRC is the source directory of a mossbeat checkout, the one that holds the
``mossbeat`` package (``src`` at the root of this repository).  The table:

- 5 truths x seeds 100-103 x counts and ratio x 8 fit configurations (320
  fits) on criterion 11's binning, 24 s bins over 14 400 s;
- criterion 11's seed 1000, counts and ratio;
- the beatless seed-41 data (n0 = 0, background 0.02) with all four
  parameters free.

Every field is hashed exactly: floats by their hex form, the covariance by
its bytes.  Two checkouts whose fits agree bit for bit print the same
digest on one machine.  Another BLAS build can round differently, so no
digest is stored; compare two checkouts on the same machine.  ``--list``
prints one line per fit (its label, its own digest, tau_d and chi2) before
the digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

# criterion 11's binning and kalpha scale; each fit starts from n0 = 1,
# tau_d = 2000 s, phi0 = 0
WIDTH, HORIZON, KALPHA_SCALE = 24.0, 14400.0, 1.0
START = {"n0": 1.0, "tau_d": 2000.0, "phi0": 0.0}
SEEDS = (100, 101, 102, 103)
TRUTHS = {
    "c11": {"n0": 4.0},
    "fast": {"n0": 4.0, "tau_d": 30.0},
    "slow": {"n0": 4.0, "tau_d": 1e4, "phi0": 2.0},
    "weak": {"n0": 0.1},
    "background": {"n0": 4.0, "background": 0.02, "phi0": 1.2},
}
# name: (free parameters, bounds, start overrides)
CONFIGS = {
    "default": (("n0", "tau_d", "phi0"), {}, {}),
    "background": (("n0", "tau_d", "phi0", "background"), {}, {}),
    "n0_held": (("tau_d", "phi0"), {}, {}),
    "n0_held_background": (("tau_d", "phi0", "background"), {}, {}),
    "tau_d_held": (("n0", "phi0"), {}, {}),
    "phi0_only": (("phi0",), {}, {"n0": 4.0}),
    "narrow_phi0": (("n0", "tau_d", "phi0"), {"phi0": (0.1, 1.0)}, {}),
    "phi0_held": (("n0", "tau_d", "background"), {"tau_d": (1.0, 1e6)}, {"phi0": 0.3}),
}


def _encode(value) -> str:
    """An exact text form of a FitResult field."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}:{value.tobytes().hex()}"
    if dataclasses.is_dataclass(value):
        return _encode(tuple(getattr(value, f.name) for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return "(" + ",".join(_encode(v) for v in value) + ")"
    return repr(value)


def fits(mb):
    """(label, FitResult) for every fit of the table, in order."""
    true = mb.BeatParams(n0=60.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0, background=0.0)

    def both(params, seed):
        gamma, kalpha = mb.simulate_counts(params, KALPHA_SCALE, WIDTH, HORIZON, seed=seed)
        return {"counts": gamma, "ratio": mb.normalize(gamma, kalpha)}

    for truth, changes in TRUTHS.items():
        params = dataclasses.replace(true, **changes)
        for seed in SEEDS:
            for kind, series in both(params, seed).items():
                for name, (free, bounds, start) in CONFIGS.items():
                    base = dataclasses.replace(params, **{**START, **start})
                    cfg = mb.FitConfig(free_params=free, bounds=bounds, base=base)
                    yield f"{truth}/{seed}/{kind}/{name}", mb.fit_beat(series, cfg)
    c11 = dataclasses.replace(true, n0=4.0)
    for kind, series in both(c11, 1000).items():
        yield f"criterion11/1000/{kind}", mb.fit_beat(series, mb.FitConfig(base=dataclasses.replace(c11, **START)))
    beatless = dataclasses.replace(true, n0=0.0, background=0.02)
    cfg = mb.FitConfig(free_params=("n0", "tau_d", "phi0", "background"),
                       base=dataclasses.replace(beatless, **START))
    yield "beatless/41/counts", mb.fit_beat(both(beatless, 41)["counts"], cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="source directory holding the mossbeat package")
    parser.add_argument("--list", action="store_true", help="print one line per fit first")
    args = parser.parse_args(argv)
    if not (args.src / "mossbeat" / "__init__.py").is_file():
        parser.error(f"no mossbeat package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    import mossbeat as mb

    total, count = hashlib.sha256(), 0
    for label, out in fits(mb):
        text = _encode(out).encode()
        total.update(text)
        count += 1
        if args.list:
            print(label, hashlib.sha256(text).hexdigest()[:16], repr(out.params.tau_d), repr(out.chi2))
    print(f"{total.hexdigest()}  {count} fits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
