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
# versions 1 to 4 also store noise eigenpairs, which version 5 rebuilds
NOISE = ("noise_eigenvalues", "noise_eigenvectors")
VERSION_4_MATRICES = (*MATRICES, *NOISE)
# versions 1 to 3 store the dense coef_w in place of its factor
OLD_MATRICES = ("coef_w", *VERSION_4_MATRICES[1:])


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


def version_4_document(text: str, noise) -> str:
    """The version 5 document ``text`` as version 4 stores it: with the
    noise eigenpairs ``noise`` (a spectral pair) that its model holds in
    place of their number."""
    doc = json.loads(text)
    del doc["noise_rank"]
    doc.update(version=4, noise_eigenvalues=encode(noise.eigenvalues),
               noise_eigenvectors=encode(noise.eigenvectors))
    return json.dumps(doc)


def decimal_document(text: str, version: int) -> dict:
    """The version 3 document ``text`` as version 1 or 2 stores it: every
    matrix a (nested) list of decimals."""
    doc = json.loads(text)
    doc.update({key: decode(doc[key]).tolist() for key in OLD_MATRICES}, version=version)
    return doc
