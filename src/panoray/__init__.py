"""Panoramic X-ray simulation and volumetric reconstruction toolkit."""

from .backproject import BackProjectionMap, aggregate_rho, crossing_counts
from .errors import DimsError, FormatError
from .metrics import MetricsReport, dice, evaluate, psnr, ssim, volume_mse
from .ray_geometry import (
    CenterCurve,
    GeometryConfig,
    RayFan,
    angle_for_center,
    build_fan,
    default_curve_for_grid,
    extract_rays,
    make_centers,
    save_rayfan,
)
from .reconstructor import ReconConfig, ReconReport, gradient, loss, reconstruct
from .renderer import (
    RenderConfig,
    SimPXImage,
    load_image,
    mip,
    render_simpx,
    save_image,
    save_pgm16,
)
from .volume import DensityVolume, load_volume, make_phantom, save_volume

__version__ = "0.1.0"
