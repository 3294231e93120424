"""2-D sheet model on a triangular mesh (the NEPTUNE reduced-dimension
particle-model analogue)."""
from .config import TwoDConfig
from .simulation import TwoDSheetModel, build_tri_stiffness, \
    lumped_node_areas

__all__ = ["TwoDConfig", "TwoDSheetModel", "build_tri_stiffness",
           "lumped_node_areas"]
