import numpy as np
import scipy.fftpack

from matt.dsp import dct_matrix, mfcc
from matt.dsp.summarize import FAMILY_COLUMNS


def test_constant_column_excites_only_coefficient_zero():
    log_mel = np.full((96, 5), -80.0)
    out = mfcc(log_mel)
    assert out.shape == (20, 5)
    assert np.all(np.abs(out[0]) > 1.0)
    assert np.all(np.abs(out[1:]) <= 1e-9)


def test_output_row_count_is_twenty(clip_extraction):
    assert clip_extraction.vector[FAMILY_COLUMNS["mfcc"]].shape == (140,)


def test_dct_inverts_against_scipy_idct_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(96)
    coeffs = dct_matrix(96, 96) @ x
    recovered = scipy.fftpack.idct(coeffs, type=2, norm="ortho")
    rel = np.linalg.norm(recovered - x) / np.linalg.norm(x)
    assert rel <= 1e-9


def test_dct_matrix_is_orthonormal():
    mat = dct_matrix(96, 96)
    assert np.allclose(mat @ mat.T, np.eye(96), atol=1e-12)
