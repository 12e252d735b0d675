"""Projection-based semantic segmentation for rotating-LiDAR scans."""

from .cloud_io import (
    FormatError,
    LabelArray,
    PointCloud,
    RangeImage,
    read_labels,
    read_point_cloud,
    read_range_image_bytes,
    write_labels,
    write_point_cloud,
    write_range_image_bytes,
)
from .projection import (
    IndexMap,
    OcclusionStats,
    backproject_labels,
    get_columns,
    get_rows,
    occlusion_stats,
    project_ego_corrected,
    unfold_scan,
)
from .seg_net import BACKBONE_PRESETS, Network, NetworkConfig, build, config_from_preset, count_params
from .seg_objectives import ConfusionMatrix, accumulate_confusion, cross_entropy, dice_loss_on_logits, miou, softmax
from .synth_lidar import Box, Cylinder, SceneConfig, SensorModel, Sphere, SynthScan, generate_scan
from .trainer import RunReport, Sample, TrainConfig, evaluate, make_synthetic_dataset, train

__version__ = "0.1.0"
