import importlib.util
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import mossbeat
from mossbeat import beat, fit_beat, fitting

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fit_digest.py"
_SPEC = importlib.util.spec_from_file_location("fit_digest", _PATH)
fit_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fit_digest)


def _one_fit():
    true = mossbeat.BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0)
    gamma, _ = mossbeat.simulate_counts(true, 1.0, 24.0, 14400.0, seed=1000)
    return fit_beat(gamma, mossbeat.FitConfig(base=true))


def test_encode_tells_one_ulp_apart():
    out = _one_fit()
    text = fit_digest._encode(out)
    assert text == fit_digest._encode(replace(out))
    assert text != fit_digest._encode(replace(out, chi2=float(np.nextafter(out.chi2, np.inf))))
    cov = out.covariance.copy()
    cov[1, 1] = np.nextafter(cov[1, 1], 0.0)
    assert text != fit_digest._encode(replace(out, covariance=cov))
    params = replace(out.params, phi0=float(np.nextafter(out.params.phi0, 0.0)))
    assert text != fit_digest._encode(replace(out, params=params))


def test_table_has_323_distinct_fits():
    # fits stood in for, so only the table's simulations run
    stub = SimpleNamespace(**{name: getattr(mossbeat, name) for name in
                              ("BeatParams", "FitConfig", "simulate_counts", "normalize")})
    stub.fit_beat = lambda series, cfg: (series, cfg)
    labels = [label for label, _ in fit_digest.fits(stub)]
    assert len(labels) == len(set(labels)) == 323


def test_fit_does_not_depend_on_block_size(monkeypatch):
    # 2 000 bins in blocks of 7: the fit's kept blocks, their layouts and
    # nodes give the fit of the default blocks bit for bit
    true = mossbeat.BeatParams(n0=4.0, tau0=4857.0, tau_d=485.7, phi0=0.3, t_pump=3600.0)
    gamma, _ = mossbeat.simulate_counts(true, 1.0, 7.2, 14400.0, seed=8)
    cfg = mossbeat.FitConfig(base=replace(true, n0=1.0, tau_d=2000.0, phi0=0.0), bounds={"tau_d": (100.0, 1e4)})
    fitting._binning.cache_clear()
    default = fit_digest._encode(fit_beat(gamma, cfg))
    fitting._binning.cache_clear()
    monkeypatch.setattr(beat, "_BLOCK_BINS", 7)
    assert fit_digest._encode(fit_beat(gamma, cfg)) == default
