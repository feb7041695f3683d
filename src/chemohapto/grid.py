"""Uniform cell-centered rectangular grid with zero-flux (Neumann) operators.

Fields are numpy arrays of shape (nx, ny); entry [i, j] holds the cell
average at x_i = (i + 1/2) hx, y_j = (j + 1/2) hy.  All operators use the
mirror ghost-cell convention, which makes every boundary-normal face
difference vanish.  Laplacian and transport divergence are assembled in
conservative flux form, so their integral over the domain telescopes to
zero up to rounding.
"""

from __future__ import annotations

import math

import numpy as np

# Largest norm order for which 2^(-1078/p), rounded to a double, still
# bounds |f|^p by 2^-1078 within a factor 1 + 2^-20.
_MASKED_POWER_MAX_P = 2.0 ** 32


class Grid:
    """Geometry plus discrete calculus on [0, Lx] x [0, Ly].

    Parameters
    ----------
    nx, ny : int
        Cell counts per axis, at least 4 each.
    Lx, Ly : float
        Side lengths, finite and strictly positive, whose products Lx*Ly
        and hx*hy neither overflow nor underflow to zero.
    """

    def __init__(self, nx: int, ny: int, Lx: float = 1.0, Ly: float = 1.0):
        if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
            raise ValueError("nx and ny must be integers")
        if nx < 4 or ny < 4:
            raise ValueError(f"nx and ny must be >= 4, got nx={nx}, ny={ny}")
        if not (0 < Lx < math.inf and 0 < Ly < math.inf):
            raise ValueError(f"Lx and Ly must be finite and positive, got Lx={Lx}, Ly={Ly}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.Lx = float(Lx)
        self.Ly = float(Ly)
        self.hx = self.Lx / self.nx
        self.hy = self.Ly / self.ny
        if not (0 < self.Lx * self.Ly < math.inf and 0 < self.hx * self.hy):
            raise ValueError(f"Lx and Ly must give a finite, positive area and cell area, "
                             f"got Lx={Lx}, Ly={Ly}")
        self.x = (np.arange(self.nx) + 0.5) * self.hx
        self.y = (np.arange(self.ny) + 0.5) * self.hy

    @property
    def area(self) -> float:
        return self.Lx * self.Ly

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def shape(self) -> tuple:
        return (self.nx, self.ny)

    def mesh(self):
        """Cell-center coordinate arrays X, Y of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def check_shape(self, f: np.ndarray) -> None:
        if f.shape != (self.nx, self.ny):
            raise ValueError(f"field shape {f.shape} does not match grid ({self.nx}, {self.ny})")

    # ------------------------------------------------------------------
    # face differences and flux divergence

    def face_diff(self, f: np.ndarray):
        """Normal differences / h on interior faces: (nx-1, ny) and (nx, ny-1).

        Boundary faces carry zero difference by the mirror convention and
        are not stored.
        """
        dx = f[1:, :] - f[:-1, :]
        dx /= self.hx
        dy = f[:, 1:] - f[:, :-1]
        dy /= self.hy
        return dx, dy

    def face_means(self, f: np.ndarray):
        """Means of the two cells beside each interior face, in face_diff's
        layout: (nx-1, ny) and (nx, ny-1)."""
        return 0.5 * (f[:-1, :] + f[1:, :]), 0.5 * (f[:, :-1] + f[:, 1:])

    def _div(self, Fx: np.ndarray, Fy: np.ndarray) -> np.ndarray:
        # Divergence of face fluxes with zero flux on boundary faces.  The
        # fluxes are scaled in place (callers pass arrays they own), which
        # saves allocating and filling a field-sized temporary.  Under
        # cli.main on glibc a freed temporary is reused without new page
        # faults (cli._keep_freed_buffers); elsewhere a fresh one may fault
        # its pages in again on every call.
        out = np.zeros((self.nx, self.ny))
        Fx /= self.hx
        out[:-1, :] += Fx
        out[1:, :] -= Fx
        Fy /= self.hy
        out[:, :-1] += Fy
        out[:, 1:] -= Fy
        return out

    def laplacian_neumann(self, f: np.ndarray) -> np.ndarray:
        """Five-point Laplacian with mirror ghost cells (zero-flux walls)."""
        self.check_shape(f)
        dx, dy = self.face_diff(f)
        return self._div(dx, dy)

    def taxis_divergence(self, u: np.ndarray, ax: np.ndarray,
                         ay: np.ndarray) -> np.ndarray:
        """div(u a) with donor-cell upwinding of the carrier u.

        The face velocity a = (ax, ay) comes in face_diff's layout,
        (nx-1, ny) and (nx, ny-1); the drift of a potential phi is
        face_diff(phi).  The face value of u is taken from the upwind side,
        which keeps the explicit transport step positivity-friendly under
        the CFL bound.  Boundary fluxes vanish, so integrate(result) == 0 up
        to rounding, and for constant u and a = face_diff(phi) the result
        coincides with laplacian_neumann(phi).  ax and ay are left unchanged.
        """
        self.check_shape(u)
        if ax.shape != (self.nx - 1, self.ny) or ay.shape != (self.nx, self.ny - 1):
            raise ValueError(f"face drift shapes {ax.shape} and {ay.shape} do not match "
                             f"face_diff's layout on grid ({self.nx}, {self.ny})")
        # donor cell: positive face velocity transports from the low side;
        # a zero or nan velocity takes the high side
        Fx = u[1:, :].copy()
        np.copyto(Fx, u[:-1, :], where=ax > 0.0)
        Fx *= ax
        Fy = u[:, 1:].copy()
        np.copyto(Fy, u[:, :-1], where=ay > 0.0)
        Fy *= ay
        return self._div(Fx, Fy)

    # ------------------------------------------------------------------
    # quadrature and norms

    def integrate(self, f: np.ndarray) -> float:
        """Midpoint quadrature; exact for fields linear per cell."""
        self.check_shape(f)
        return float(f.sum()) * self.cell_area

    def norm(self, f: np.ndarray, p: float) -> float:
        """L^p norm under midpoint quadrature; p = inf gives max |f|.

        For p other than 1 and 2, |f|^p is only evaluated where
        |f| > 2^(-1078/p).  At or below that cut the exact power is at
        most 2^-1078, a sixteenth of the smallest subnormal, so it rounds
        to +0 and the skipped lanes hold the same bits the power would
        give; libm's underflow paths, the slow part of a narrow bump's
        norm, are never entered.  nan and inf lanes fail `a <= cut` and
        are still raised to p.  Past p = 2^32 the cut itself is too
        coarse to keep that bound, so the power is taken everywhere.
        """
        self.check_shape(f)
        if p == math.inf:
            return float(np.max(np.abs(f)))
        if not p >= 1:
            raise ValueError(f"norm order p must be >= 1 or inf, got {p}")
        a = np.abs(f)
        if p == 1 or p == 2 or p > _MASKED_POWER_MAX_P:
            a **= p
        else:
            a = np.power(a, p, out=np.zeros(a.shape),
                         where=~(a <= 2.0 ** (-1078.0 / p)))
        return float(a.sum() * self.cell_area) ** (1.0 / p)

    def grad_magnitude(self, f: np.ndarray) -> np.ndarray:
        """Cell gradient magnitude from squared face differences.

        Per cell and axis the two adjacent face differences are averaged
        in the square; boundary-normal differences are zero.
        """
        self.check_shape(f)
        dx, dy = self.face_diff(f)
        dx *= dx
        dy *= dy
        gx2 = np.empty((self.nx, self.ny))
        gx2[:-1, :] = dx
        gx2[-1, :] = 0.0
        gx2[1:, :] += dx
        gx2 *= 0.5
        gy2 = np.empty((self.nx, self.ny))
        gy2[:, :-1] = dy
        gy2[:, -1] = 0.0
        gy2[:, 1:] += dy
        gy2 *= 0.5
        gx2 += gy2
        return np.sqrt(gx2, out=gx2)

    def grad_norm(self, f: np.ndarray, q: float) -> float:
        """L^q norm of the cell gradient magnitude."""
        return self.norm(self.grad_magnitude(f), q)

    def dirichlet_energy(self, f: np.ndarray, g: np.ndarray) -> float:
        """Face-based integral of grad(f) . grad(g).

        Each interior face contributes the product of the two normal
        differences times the cell area; boundary faces contribute zero.
        For f == g this equals grad_norm(f, 2)**2 exactly, since every
        interior face enters two cell averages with weight one half.
        """
        self.check_shape(f)
        self.check_shape(g)
        fx, fy = self.face_diff(f)
        gx, gy = self.face_diff(g)
        return float((fx * gx).sum() + (fy * gy).sum()) * self.cell_area
