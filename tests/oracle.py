"""The dense matrix-exponential oracle: the accuracy gate of the stepper.

It builds the whole generator matrix of a problem, so it serves the tests
and no ``vws`` pipeline.
"""

import numpy as np

from vwslab.evolve import EvolutionProblem, EvolveError, _Operator
from vwslab.grid import Field, fft, ifft


def dense_oracle(prob: EvolutionProblem) -> Field:
    """Exact-in-time solution of the semi-discrete system via the dense
    generator matrix G; independent of the time stepper.

    u(T) is expm(T i G) u0, with scipy's scaling-and-squaring ``expm``
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31 (2009)).
    """
    spec = prob.cs.spec
    if spec.n == 1 and spec.M > 32:
        raise EvolveError("dense oracle limited to M <= 32 in 1D")
    if spec.n == 2 and spec.M > 8:
        raise EvolveError("dense oracle limited to M <= 8 in 2D")

    from scipy.linalg import expm

    size, n = spec.size, spec.n
    # G applied to every unit vector at once, a stack that the operator of
    # the one problem broadcasts over; row j of the stack is column j of G
    basis = np.eye(size, dtype=complex).reshape((size,) + spec.shape)
    columns = ifft(_Operator([prob.cs])(fft(basis, n)), n)
    out = expm(1j * prob.T * columns.reshape(size, size).T) @ prob.u0.values.ravel()
    return Field(spec, out.reshape(spec.shape))
