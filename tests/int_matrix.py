"""Test helpers on abelian.IntMatrix that the package itself does not need:
the exact determinant through abelian.det_sparse, and the main diagonal."""
from typing import List

from sutor.abelian import IntMatrix, det_sparse


def det_int(M: IntMatrix) -> int:
    """Exact determinant: det_sparse of the nonzero entries of each row."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    n, e = M.cols, M.entries
    return det_sparse([{j: v for j, v in enumerate(e[i * n:(i + 1) * n]) if v}
                       for i in range(n)])


def diagonal(M: IntMatrix) -> List[int]:
    return [M.at(i, i) for i in range(min(M.rows, M.cols))]
