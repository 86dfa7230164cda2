"""marsdust: synthesize, remove and measure dust-storm degradations on
orbital images."""

from .degrade import (
    ALPHA_SET,
    AtmosphericLight,
    DatasetManifest,
    PairRecord,
    Reflexivity,
    estimate_atmospheric_light,
    estimate_reflexivity,
    generate_pairs,
    make_transmission,
    replay_dusty,
    synthesize_dusty,
)
from .metrics import corpus_report, dust_index, psnr, ssim
from .noise import NoiseField, PerlinParams, perlin2d, sample_params
from .raster import Image, load_image, save_image
from .restore import estimate_transmission, invert_degradation, load_model
from .restore import remove_estimated, remove_known, remove_learned

__version__ = "0.1.0"
