"""Read and edit the matrices of a model document as arrays.

The matrix encoding is spelled out here rather than imported from the
package, so tests that use it also pin the file format: each matrix is
``{"shape": [...], "f8le": "<base64>"}`` of its C-order little-endian
float64 bytes.
"""

import base64
import json

import numpy as np

MATRICES = ("factor", "x_mean_coords", "y_mean", "residual_matrix",
            "covariate_eigenvalues", "covariate_eigenvectors")
# the noise eigenpairs, which the reader rebuilds from the residuals
NOISE = ("noise_eigenvalues", "noise_eigenvectors")


def decode(field) -> np.ndarray:
    data = base64.b64decode(field["f8le"])
    return np.frombuffer(data, dtype="<f8").reshape(field["shape"]).copy()


def encode(values) -> dict:
    values = np.asarray(values, dtype=float)
    return {"shape": list(values.shape),
            "f8le": base64.b64encode(values.astype("<f8").tobytes()).decode("ascii")}


def edit_matrix(text: str, key: str, edit) -> str:
    """The document ``text`` with matrix ``key`` replaced by ``edit`` of its
    decoded array."""
    doc = json.loads(text)
    doc[key] = encode(edit(decode(doc[key])))
    return json.dumps(doc)


def set_cell(text: str, key: str, index: int, value: float) -> str:
    """The document ``text`` with cell ``index`` (in C order) of matrix
    ``key`` set to ``value``."""

    def put(values):
        values.flat[index] = value
        return values

    return edit_matrix(text, key, put)

