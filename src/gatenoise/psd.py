"""Noise power spectral densities.

Internally every PSD is two-sided in angular frequency: the autocovariance of
the process is ``C(t) = (1/2pi) * Int dw S(w) exp(i w t)``, so a stationary
process of variance ``sigma**2`` obeys ``sigma**2 = (1/pi) * Int_0^inf S dw``.
Experimental files are typically one-sided in Hz; ingestion converts via
``w = 2*pi*f`` and ``S(w) = S_1s(f) / 2``, which leaves the total power
invariant under the measure above.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi


@dataclass
class NoisePsd:
    """Two-sided angular-frequency power spectral density.

    Two kinds are supported:

    * ``"ou"``: the Lorentzian ``S(w) = c * tau_c**2 / (1 + (w*tau_c)**2)``
      of an Ornstein-Uhlenbeck process with diffusion constant ``c``
      (rad^2/s^3) and correlation time ``tau_c`` (s).
    * ``"tabulated"``: sorted sample pairs interpolated log-log in between,
      with constant plateaus outside the sampled range.  Excluded bands
      (instrument artifacts such as servo bumps) are removed at construction
      time; evaluation bridges them log-log between the surviving knots,
      which keeps the curve continuous across the band edges.

    Evaluation is parity-even in ``w`` for both kinds.
    """

    kind: str
    c: float = 0.0
    tau_c: float = 0.0
    omegas: np.ndarray | None = None
    densities: np.ndarray | None = None
    low_plateau: float = 0.0
    high_plateau: float = 0.0
    excluded_bands: tuple = ()
    _log_w: np.ndarray = field(default=None, repr=False)
    _log_s: np.ndarray = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def ou(cls, c, tau_c):
        if c < 0 or tau_c <= 0:
            raise ValidationError(f"need c >= 0 and tau_c > 0, got c={c}, tau_c={tau_c}")
        return cls(kind="ou", c=float(c), tau_c=float(tau_c))

    @classmethod
    def tabulated(cls, omegas, densities, low_plateau, high_plateau, excluded_bands=()):
        omegas = np.asarray(omegas, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if omegas.ndim != 1 or omegas.shape != densities.shape:
            raise ValidationError("omegas and densities must be matching 1d arrays")
        if omegas.size and not np.all(np.diff(omegas) > 0):
            raise ValidationError("tabulated frequencies must be strictly increasing")
        if np.any(omegas <= 0):
            raise ValidationError("tabulated angular frequencies must be positive")
        if np.any(densities < 0) or low_plateau < 0 or high_plateau < 0:
            raise ValidationError("densities and plateau values must be nonnegative")
        bands = tuple((float(lo), float(hi)) for lo, hi in excluded_bands)
        for lo, hi in bands:
            if not 0 <= lo < hi:
                raise ValidationError(f"bad excluded band ({lo}, {hi})")
        keep = np.ones(omegas.size, dtype=bool)
        for lo, hi in bands:
            keep &= ~((omegas > lo) & (omegas < hi))
        omegas, densities = omegas[keep], densities[keep]
        if omegas.size < 2:
            raise ValidationError("tabulated PSD needs at least 2 samples outside excluded bands")
        obj = cls(
            kind="tabulated",
            omegas=omegas,
            densities=densities,
            low_plateau=float(low_plateau),
            high_plateau=float(high_plateau),
            excluded_bands=bands,
        )
        # Zero densities break log interpolation; floor them far below scale.
        floor = max(densities.max(), 1.0) * 1e-300
        obj._log_w = np.log(omegas)
        obj._log_s = np.log(np.maximum(densities, floor))
        return obj

    @classmethod
    def from_files(cls, csv_path, sidecar_path):
        """Load a PSD from a CSV table plus its JSON sidecar.

        The CSV must have a header naming two columns (frequency, density);
        the sidecar declares ``units`` ("hz_one_sided" or "rad_s_two_sided"),
        plateau levels and optional ``excluded_bands``, all in file units.
        """
        try:
            sidecar = json.loads(Path(sidecar_path).read_text())
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read PSD sidecar {sidecar_path}: {exc}") from None
        try:
            with open(csv_path, newline="") as fh:
                header, *rows = list(csv.reader(fh)) or [[]]
        except (OSError, ValueError, csv.Error) as exc:
            raise ValidationError(f"cannot read PSD file {csv_path}: {exc}") from None
        if not isinstance(sidecar, dict):
            raise ValidationError(f"PSD sidecar {sidecar_path} must be a JSON object")
        for key in ("units", "low_plateau", "high_plateau"):
            if key not in sidecar:
                raise ValidationError(f"PSD sidecar is missing required field {key!r}")
        units = sidecar["units"]
        if units not in ("hz_one_sided", "rad_s_two_sided"):
            raise ValidationError(f"unknown PSD units {units!r}")
        if len(header) < 2:
            raise ValidationError(f"PSD file {csv_path} needs two columns")
        freqs, dens = [], []
        for row in rows:
            if not row or not row[0].strip():
                continue
            try:
                freqs.append(float(row[0]))
                dens.append(float(row[1]))
            except (ValueError, IndexError):
                raise ValidationError(f"PSD file {csv_path}: unparsable row {row!r}") from None
        try:
            lo_p, hi_p = float(sidecar["low_plateau"]), float(sidecar["high_plateau"])
            bands = [(float(lo), float(hi)) for lo, hi in sidecar.get("excluded_bands", [])]
        except (TypeError, ValueError):
            raise ValidationError(f"PSD sidecar {sidecar_path}: plateaus must be numbers and "
                                  "excluded_bands a list of [lo, hi] pairs") from None
        freqs = np.asarray(freqs)
        dens = np.asarray(dens)
        if freqs.size and not np.all(np.diff(freqs) > 0):
            raise ValidationError(f"PSD file {csv_path} frequencies are not strictly increasing")
        if units == "hz_one_sided":
            freqs, dens = TWO_PI * freqs, dens / 2.0
            lo_p, hi_p = lo_p / 2.0, hi_p / 2.0
            bands = [(TWO_PI * lo, TWO_PI * hi) for lo, hi in bands]
        return cls.tabulated(freqs, dens, lo_p, hi_p, bands)

    def to_files(self, csv_path, sidecar_path):
        """Write the normalized (two-sided, rad/s) form of a tabulated PSD."""
        if self.kind != "tabulated":
            raise ValidationError("only tabulated PSDs can be exported")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega_rad_s", "psd_two_sided"])
            for w, s in zip(self.omegas, self.densities):
                writer.writerow([repr(float(w)), repr(float(s))])
        sidecar = {
            "units": "rad_s_two_sided",
            "low_plateau": self.low_plateau,
            "high_plateau": self.high_plateau,
            "excluded_bands": [],
        }
        Path(sidecar_path).write_text(json.dumps(sidecar, indent=2) + "\n")

    # ------------------------------------------------------------------ #
    # evaluation

    def eval(self, omega):
        """Evaluate S(omega); accepts scalars or arrays, parity-even."""
        w = np.abs(np.asarray(omega, dtype=float))
        if self.kind == "ou":
            out = self.c * self.tau_c**2 / (1.0 + (w * self.tau_c) ** 2)
        else:
            out = np.empty_like(w)
            below = w < self.omegas[0]
            above = w > self.omegas[-1]
            inside = ~(below | above)
            out[below] = self.low_plateau
            out[above] = self.high_plateau
            if np.any(inside):
                out[inside] = np.exp(
                    np.interp(np.log(w[inside]), self._log_w, self._log_s)
                )
        if np.ndim(omega) == 0:
            return float(out)
        return out

    def breakpoints(self):
        """Frequencies where the density changes character (for quadrature)."""
        if self.kind == "ou":
            return np.array([1.0 / self.tau_c])
        return self.omegas.copy()

    def support_scale(self):
        """Angular frequency beyond which the density is plateau-like."""
        if self.kind == "ou":
            return 1.0 / self.tau_c
        return float(self.omegas[-1])

    def autocovariance(self, t):
        """C(t) of the underlying process (closed form for the OU kind)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "ou":
            out = 0.5 * self.c * self.tau_c * np.exp(-np.abs(t) / self.tau_c)
            return float(out) if out.ndim == 0 else out
        from ._quadrature import adaptive_gk

        flat = np.atleast_1d(t)
        out = np.empty(flat.shape)
        w_max = 50.0 * self.support_scale()
        pts = self.breakpoints()
        for i, ti in enumerate(flat):
            if ti != 0.0:
                pts_i = np.concatenate(
                    [pts, np.arange(1, w_max * abs(ti) / math.pi, 2.0) * math.pi / abs(ti)])
            else:
                pts_i = pts
            val, _, _ = adaptive_gk(
                lambda w: self.eval(w) * np.cos(w * ti), 0.0, w_max,
                rtol=1e-9, points=pts_i,
            )
            out[i] = val / math.pi
        return out[0] if t.ndim == 0 else out.reshape(t.shape)
