"""Noise power spectral densities.

Internally every PSD is two-sided in angular frequency: the autocovariance of
the process is ``C(t) = (1/2pi) * Int dw S(w) exp(i w t)``, so a stationary
process of variance ``sigma**2`` obeys ``sigma**2 = (1/pi) * Int_0^inf S dw``.
Experimental files are typically one-sided in Hz; ingestion converts via
``w = 2*pi*f`` and ``S(w) = S_1s(f) / 2``, which leaves the total power
invariant under the measure above.  A table's autocovariance is one Filon
pass over its log-log segments and plateaus, cut at ``50 * support_scale()``.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, _unique_keys

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
        if not np.isfinite(np.concatenate([omegas, densities, [low_plateau, high_plateau]])).all():
            raise ValidationError("tabulated frequencies, densities and plateaus must be finite")
        if omegas.size and not np.all(np.diff(omegas) > 0):
            raise ValidationError("tabulated frequencies must be strictly increasing")
        if np.any(omegas <= 0):
            raise ValidationError("tabulated angular frequencies must be positive")
        if np.any(densities < 0) or low_plateau < 0 or high_plateau < 0:
            raise ValidationError("densities and plateau values must be nonnegative")
        bands = tuple((float(lo), float(hi)) for lo, hi in excluded_bands)
        for lo, hi in bands:
            if not 0 <= lo < hi < math.inf:
                raise ValidationError(f"bad excluded band ({lo}, {hi})")
        keep = np.ones(omegas.size, dtype=bool)
        for lo, hi in bands:
            keep &= ~((omegas > lo) & (omegas < hi))
        omegas, densities = omegas[keep], densities[keep]
        omegas.flags.writeable = densities.flags.writeable = False
        if omegas.size < 2:
            raise ValidationError("tabulated PSD needs at least 2 samples outside excluded bands")
        obj = cls(
            kind="tabulated",
            omegas=omegas,
            densities=densities,
            low_plateau=float(low_plateau),
            high_plateau=float(high_plateau),
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
        plateau levels and optional ``excluded_bands``, all in file units,
        and no other field.
        """
        try:
            sidecar = json.loads(Path(sidecar_path).read_text(), object_pairs_hook=_unique_keys)
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
        unknown = sorted(set(sidecar) - {"units", "low_plateau", "high_plateau", "excluded_bands"})
        if unknown:
            raise ValidationError(f"PSD sidecar {sidecar_path} has unknown field {unknown[0]!r}")
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
        """Sorted frequencies where the density changes character (for
        quadrature); a table's read-only knots themselves, not a copy."""
        if self.kind == "ou":
            return np.array([1.0 / self.tau_c])
        return self.omegas

    def support_scale(self):
        """Angular frequency beyond which a table is its high plateau: its last knot."""
        return float(self.omegas[-1])

    def autocovariance(self, t):
        """C(t) of the underlying process; scalar in, float out; parity-even in t.

        OU: the closed form.  Tabulated: ``(1/pi) Int_0^w_max S(w) cos(w t) dw``
        with ``w_max = 50 * support_scale()``, so a high plateau leaves a
        ringing ``S_hi sin(w_max t) / (pi t)``; one product with the node
        weights ``_filon``, in blocks of t of about 2 MB.
        """
        t = np.asarray(t, dtype=float)
        if self.kind == "ou":
            out = 0.5 * self.c * self.tau_c * np.exp(-np.abs(t) / self.tau_c)
            return float(out) if out.ndim == 0 else out
        jumps, a, half, q = self._filon
        flat = np.abs(t).ravel()
        out = np.empty(flat.size)
        step = max(1, 2**18 // half.size)
        for i in range(0, flat.size, step):
            # sin^2 x = tau^2 / (1 + tau^2), tau = tan x: numpy 2.4.6's float64 tan
            # takes a SIMD path and sin does not; re-measure if numpy changes
            tau2 = np.tan(np.multiply.outer(flat[i:i + step], half))
            tau2 *= tau2
            out[i:i + step] = (tau2 / (1.0 + tau2)) @ q
        # where t w_N / 2 < 1e-8, sin(u) = u in double precision and C(t) = C(0)
        out = np.divide(out, flat**2, out=np.full(flat.size, q @ half**2),
                        where=flat * half[-1] >= 1e-8)
        out += np.sinc(np.multiply.outer(flat, jumps / math.pi)) @ a
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    @functools.cached_property
    def _filon(self):
        """Weights of ``C(t) = sinc(t jumps) @ a + sin(t half)^2 @ q / t^2``.

        Table segments are cut into panels of log width <= 0.01, then halved;
        S is linear in w on each and integrated against cos(w t) exactly
        (Filon, Proc. R. Soc. Edinburgh 49, 38, 1928), and Richardson over the
        halving removes the O(width^2) error.  By parts, the jumps of S at w_0,
        w_N, w_max give ``a``; those of dS/dw give ``q``, via 1 - cos x = 2 sin(x/2)^2.
        """
        lw, ls = self._log_w, self._log_s
        n = 2 * np.ceil(np.diff(lw) / 0.01).astype(int)
        seg = np.repeat(np.arange(n.size), n)
        frac = (np.arange(seg.size) - np.repeat(np.cumsum(n) - n, n)) / n[seg]
        x = np.append(np.exp(lw[seg] + np.diff(lw)[seg] * frac), self.omegas[-1])
        f = np.append(np.exp(ls[seg] + np.diff(ls)[seg] * frac), math.exp(ls[-1]))

        def slope_jumps(x, f):
            return np.diff(np.diff(f) / np.diff(x), prepend=0.0, append=0.0)

        q = 4.0 * slope_jumps(x, f)
        q[::2] -= slope_jumps(x[::2], f[::2])
        jumps = np.array([x[0], x[-1], 50.0 * self.support_scale()])
        a = np.array([self.low_plateau - f[0], f[-1] - self.high_plateau, self.high_plateau])
        return jumps, a * jumps / math.pi, 0.5 * x, q * (2.0 / (3.0 * math.pi))
