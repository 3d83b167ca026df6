"""Parameterised multi-floor synthetic mall (the scale workload).

The paper-shape generator (:mod:`repro.datasets.floorplan`) is pinned
to the evaluation's floor geometry; this module wraps it in a venue
generator whose *size* is the interface — floors, rooms per floor and
keyword density per room — so the scale bench can grow venues until
the hot paths hurt::

    space, kindex = build_synth_mall(SynthMallConfig(
        floors=10, rooms_per_floor=48, words_per_room=8, seed=7))

Everything derives deterministically from the config (same config →
byte-identical venue document and keyword index): the floor plan keeps
the paper's strip/spine/staircase structure with the strip geometry
resized so rooms retain their paper-scale dimensions, the corpus is
generated from ``seed`` with enough brands for roughly one i-word per
four rooms (I2P stays one-to-many, as in the paper), and brands are
dealt to rooms by the seeded random assigner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.datasets.assign import assign_random
from repro.datasets.corpus import CorpusConfig, build_corpus
from repro.datasets.floorplan import FloorplanConfig, build_synthetic_space
from repro.geometry.point import FLOOR_HEIGHT
from repro.keywords.mappings import KeywordIndex
from repro.space.indoor_space import IndoorSpace


@dataclass(frozen=True)
class SynthMallConfig:
    """Size knobs of the synthetic mall.

    Attributes:
        floors: Stacked floors (the scale bench's main axis).
        rooms_per_floor: Rooms per floor; rounded to the nearest
            multiple of 8 (4 strips × 2 sides) with a floor of 16.
        words_per_room: Target t-words per room's i-word (keyword
            density; drives candidate-set and bitmask sizes).
        seed: Master seed for corpus generation and assignment.
    """

    floors: int = 10
    rooms_per_floor: int = 48
    words_per_room: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if self.floors < 1:
            raise ValueError("floors must be at least 1")
        if self.rooms_per_floor < 8:
            raise ValueError("rooms_per_floor must be at least 8")
        if self.words_per_room < 1:
            raise ValueError("words_per_room must be at least 1")

    @property
    def rooms_per_strip_side(self) -> int:
        return max(2, round(self.rooms_per_floor / 8))

    def floorplan(self) -> FloorplanConfig:
        """The per-floor geometry realising ``rooms_per_floor``.

        The paper floor keeps 12 rooms per strip side on a 1368 m
        side; the side scales linearly with the room count so room
        (and hallway-cell) dimensions stay paper-sized — the same-door
        re-entry cost must remain commensurate with query distances.
        """
        per_side = self.rooms_per_strip_side
        shrink = per_side / 12.0
        return FloorplanConfig(
            side=1368.0 * shrink,
            strips=4,
            rooms_per_strip_side=per_side,
            cells_per_strip=max(2, round(9 * shrink)),
            spine_cells=max(2, round(5 * shrink)),
            staircases=4,
            second_door_fraction=0.8,
        )

    def corpus(self) -> CorpusConfig:
        """A corpus sized to the venue: ~1 brand per 4 rooms."""
        total_rooms = self.floors * self.rooms_per_strip_side * 8
        num_brands = max(10, total_rooms // 4)
        return CorpusConfig(
            num_brands=num_brands,
            num_categories=max(3, num_brands // 30),
            category_vocab=max(40, self.words_per_room * 12),
            shared_vocab=max(120, self.words_per_room * 40),
            words_per_document=(self.words_per_room,
                                self.words_per_room * 2),
            max_twords=self.words_per_room,
            seed=self.seed,
        )


def build_synth_mall(cfg: SynthMallConfig = SynthMallConfig(),
                     ) -> Tuple[IndoorSpace, KeywordIndex]:
    """Build the venue and keyword index of a :class:`SynthMallConfig`."""
    space, rooms_by_floor = build_synthetic_space(
        floors=cfg.floors, cfg=cfg.floorplan())
    corpus = build_corpus(cfg.corpus())
    all_rooms = [room for floor in sorted(rooms_by_floor)
                 for room in rooms_by_floor[floor]]
    kindex = assign_random(all_rooms, corpus, seed=cfg.seed)
    return space, kindex


def tenant_mall_configs(count: int,
                        floors: int = 2,
                        rooms_per_floor: int = 16,
                        words_per_room: int = 4,
                        seed: int = 7) -> Dict[str, SynthMallConfig]:
    """A fleet of distinct synthetic tenants for multi-venue tests.

    Returns ``venue id -> config``; each tenant derives its own corpus
    and assignment seed (offset deterministically from the master
    seed), so co-hosted venues answer *different* routes for the same
    keyword traffic — exactly what the tenancy tests need to catch a
    cross-venue routing mix-up.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    return {
        f"mall-{i:02d}": SynthMallConfig(
            floors=floors, rooms_per_floor=rooms_per_floor,
            words_per_room=words_per_room, seed=seed + 131 * i)
        for i in range(count)
    }


def mall_stats(space: IndoorSpace, kindex: KeywordIndex) -> Dict[str, float]:
    """Headline size numbers for bench entries and logs."""
    kstats = kindex.stats()
    return {
        "partitions": len(space.partitions),
        "doors": len(space.doors),
        "iwords": int(kstats["num_iwords"]),
        "twords": int(kstats["num_twords"]),
    }


def venue_diameter(space: IndoorSpace) -> float:
    """A straight-line venue diameter used to pick query distances."""
    xs: List[float] = []
    ys: List[float] = []
    levels: List[float] = []
    for p in space.partitions.values():
        xs.extend((p.footprint.x_min, p.footprint.x_max))
        ys.extend((p.footprint.y_min, p.footprint.y_max))
        levels.append(p.footprint.level)
    if not xs:
        return 0.0
    dx = max(xs) - min(xs)
    dy = max(ys) - min(ys)
    dz = (max(levels) - min(levels)) * FLOOR_HEIGHT
    return math.sqrt(dx * dx + dy * dy + dz * dz)
