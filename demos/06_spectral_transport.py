#!/usr/bin/env python3
"""Transport the damped qubit's spectral sectors and test how physical it is.

Two constructions ride the generator's instantaneous eigenvectors:

  * the kernel transport, the limit of ordered products of steady-state
    projectors along the path, which is the final kernel projector itself:
    the left kernel vector L_1 is constant, so the kernel connection
    A_1 = L_1 . dR_1/dt vanishes (checked below on a 2000-step mesh);
  * the full transport U(s), an ODE that carries all four sectors and
    intertwines the instantaneous projectors.

U is trace preserving by construction but complete positivity is only
guaranteed asymptotically: its distance to the exact propagator shrinks
like 1/t_f (measured below), and its Choi spectrum stays positive to the
same accuracy, i.e. it is as close to a physical channel as it is to the
exact evolution.
"""

from dataclasses import replace

import numpy as np

from aia import intertwiner as itw
from aia import lindblad_open as lo


def main():
    p = lo.OpenParams(0.25, -1.0, 1.0, 100.0, 0.3, 1e-3)

    w = itw.kernel_projector(p, 0.0)
    for t in np.linspace(0.0, p.t_f, 2001)[1:]:
        w = itw.kernel_projector(p, t) @ w
    print(f"kernel transport: ||P1(t_f) ... P1(0) - P1(t_f)|| over 2000 steps = "
          f"{np.abs(w - itw.kernel_projector(p, p.t_f)).max():.1e}")
    print("kernel connection A1 = L1 . dR1/dt = 0: L1 = (sqrt2, 0, 0, 0) is constant")
    print()

    tfs = [10.0, 30.0, 100.0, 300.0, 1000.0]
    fit, norms = itw.closeness_bound_check(p, tfs)
    print(f"{'t_f':>7} {'||E - U||':>12} {'min Choi eig':>14} {'trace error':>13}")
    for tf, norm in zip(tfs, norms):
        u = itw.full_intertwiner(replace(p, t_f=tf), 1.0)
        trace_err, min_eig = itw.cptp_diagnostics(u)
        print(f"{tf:7.0f} {norm:12.4e} {min_eig:+14.2e} {trace_err:13.1e}")
    print(f"power law of ||E - U||: {fit.amplitude:.3g} * t_f^{fit.exponent:.3f}")
    print()

    e = itw.exact_propagator(p, 1.0)
    trace_err, min_eig = itw.cptp_diagnostics(e)
    print(f"exact propagator for reference: trace error {trace_err:.1e}, "
          f"min Choi eig {min_eig:+.2e} (a physical channel)")


if __name__ == "__main__":
    main()
