"""Indoor space model substrate.

Implements the door/partition topology model of Lu et al. (ICDE 2012)
that the paper builds on: partitions (rooms, hallway cells, staircases),
doors with directionality, the topology mappings ``D2P`` / ``P2D``, the
intra-partition distance functions, the skeleton lower-bound distance
of Xie et al. (ICDE 2013), and a door-to-door routing graph with
shortest (regular) route search.
"""

from repro.space.entities import Door, Partition, PartitionKind
from repro.space.indoor_space import IndoorSpace
from repro.space.builder import IndoorSpaceBuilder
from repro.space.distances import DistanceOracle
from repro.space.graph import (DijkstraWorkspace, DoorGraph, DoorMatrix,
                              FlatTree, reconstruct_route)
from repro.space.skeleton import SkeletonIndex
from repro.space.elevators import add_elevator_shaft
from repro.space.serialize import (
    load_space,
    save_space,
    space_from_dict,
    space_to_dict,
)

__all__ = [
    "Door",
    "DijkstraWorkspace",
    "DoorGraph",
    "DoorMatrix",
    "FlatTree",
    "reconstruct_route",
    "DistanceOracle",
    "IndoorSpace",
    "IndoorSpaceBuilder",
    "Partition",
    "PartitionKind",
    "SkeletonIndex",
    "add_elevator_shaft",
    "load_space",
    "save_space",
    "space_from_dict",
    "space_to_dict",
]
