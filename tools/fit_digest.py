"""Print one SHA-256 over every ``FitResult`` field of a fixed table of fits,
and over the binned model on a fixed table of binnings beyond 600 bins.

    python tools/fit_digest.py SRC [--list]

SRC is the source directory of a mossbeat checkout, the one that holds the
``mossbeat`` package (``src`` at the root of this repository).  The fits:

- 5 truths x seeds 100-103 x counts and ratio x 8 fit configurations (320
  fits) on criterion 11's binning, 24 s bins over 14 400 s;
- criterion 11's seed 1000, counts and ratio;
- the beatless seed-41 data (n0 = 0, background 0.02) with all four
  parameters free.

The models, each ``bin_expected_counts`` with both kernels:

- the ``longrun`` benchmark's binning, 60 000 bins of 1.2 s, with the
  default beat, and ``simulate_counts`` of that beat with kalpha scale 10
  and seed 5 on it;
- 3 000 bins of 50-400 s (seed 7) with t_pump 100 s, shorter than the bins;
- 20 000 irregular bins of 0.05-5 s (seed 9) from 300 s, with background.

Every field and value is hashed exactly: floats by their hex form, arrays
by their bytes.  Two checkouts whose fits and models agree bit for bit
print the same digest on one machine.  Another BLAS build can round
differently, so compare two checkouts on the same machine.  The CI
workflow pins the digest of the current code, and a change that moves a
fit or a model updates it there.  ``--list`` prints one line per entry (its label, its own digest,
and tau_d and chi2 for a fit, the total for a model) before the digest.
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


def models(mb):
    """(label, value) for every model of the table, in order."""
    default = mb.RunConfig.default().beat()
    rng = np.random.default_rng
    binnings = {
        "longrun": (1.2 * np.arange(60001), default),
        "long-bins": (np.concatenate([[0.0], np.cumsum(rng(7).uniform(50.0, 400.0, 3000))]),
                      mb.BeatParams(n0=3.0, tau0=4857.0, tau_d=700.0, phi0=1.1, t_pump=100.0)),
        "irregular": (300.0 + np.concatenate([[0.0], np.cumsum(rng(9).uniform(0.05, 5.0, 20000))]),
                      mb.BeatParams(n0=2.0, tau0=2000.0, tau_d=250.0, phi0=0.4, t_pump=500.0, background=0.03)),
    }
    for name, (edges, params) in binnings.items():
        for kernel in ("cos2", "j0sq"):
            yield f"model/{name}/{kernel}", mb.bin_expected_counts(params, edges, kernel)
    for series in mb.simulate_counts(default, 10.0, 1.2, 72000.0, seed=5):
        yield f"model/longrun/simulate/{series.channel}", series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="source directory holding the mossbeat package")
    parser.add_argument("--list", action="store_true", help="print one line per fit first")
    args = parser.parse_args(argv)
    if not (args.src / "mossbeat" / "__init__.py").is_file():
        parser.error(f"no mossbeat package under {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    import mossbeat as mb

    total, count = hashlib.sha256(), {"fits": 0, "models": 0}
    for kind, table in (("fits", fits(mb)), ("models", models(mb))):
        for label, out in table:
            text = _encode(out).encode()
            total.update(text)
            count[kind] += 1
            if args.list:
                shown = (out.params.tau_d, out.chi2) if kind == "fits" else (
                    float(np.sum(getattr(out, "counts", out))),)
                print(label, hashlib.sha256(text).hexdigest()[:16], *map(repr, shown))
    print(f"{total.hexdigest()}  {count['fits']} fits, {count['models']} models")
    return 0


if __name__ == "__main__":
    sys.exit(main())
