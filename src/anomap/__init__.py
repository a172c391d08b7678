"""Reconstruction-based brain-image anomaly detection toolkit.

Core pieces: an SSIM+L1 fusion quality loss with exact gradients (iqa),
simplex-noise diffusion corruption and patch-conditioned reconstruction
(diffusion), a Gaussian-blur baseline and a trainable kernel-mixture
denoiser (denoise), intensity-ratio pre-processing (airprep), synthetic
phantoms (phantom), and the thresholding/metrics evaluation chain (evalkit),
all wired together by a deterministic CLI (cli, pipeline).
"""

from .imagecore import AnomalyMap, BinaryMask, Image2D
from .iqa import FusionParams, SsimParams

__version__ = "0.1.0"

__all__ = [
    "AnomalyMap", "BinaryMask", "Image2D",
    "FusionParams", "SsimParams",
    "__version__",
]
