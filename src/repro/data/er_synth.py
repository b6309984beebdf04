"""Synthetic Abt-Buy-like clean-clean ER dataset (paper substitution).

The SparkER demo runs on Abt-Buy: two product catalogs (~1081 Abt + ~1092
Buy profiles, 1097 ground-truth matches) with heterogeneous schemas. That
dataset is not available offline, so this module generates a deterministic
synthetic equivalent that exercises the same code paths:

- two sources with *different attribute names*:
  source A: ``name``, ``description``, ``price``
  source B: ``title``, ``descr``, ``manufacturer``, ``cost``
  so that loose-schema attribute partitioning has real structure to learn
  (text attributes cluster together, price/cost cluster together);
- dirty matches: token drops, typos, brand abbreviations, model codes that
  migrate from the title into the description (so a manual name/description
  attribute split loses ground-truth pairs, as in the demo's Figure 6c);
- Zipf-distributed filler vocabulary so block purging has stop-word-like
  oversized blocks to remove;
- hard negatives: distinct entities sharing brand and category.

Everything is deterministic in ``seed``. ``size_mult`` scales the number of
entities for the scalability table (D4).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

BRANDS = [
    "sonitron", "apexa", "veltrix", "quorra", "nordwave", "lumenex",
    "dynacore", "zephyrus", "octavia", "brightpath", "kinetica", "solaris",
    "vantera", "ecliptix", "harmonik", "pulsara", "gridiron", "novatek",
    "silvanus", "tempora", "auralis", "maxfield", "ironclad", "whisperer",
    "cobaltix", "emberline", "frostbyte", "galephon", "hexatron", "intrepid",
]

CATEGORIES = {
    "headphones": ["wireless", "over", "ear", "stereo", "bass", "noise",
                   "cancelling", "bluetooth"],
    "blender": ["countertop", "speed", "pitcher", "ice", "crushing", "watt"],
    "camera": ["digital", "zoom", "optical", "megapixel", "compact", "lens"],
    "vacuum": ["upright", "bagless", "cyclonic", "filter", "pet", "hepa"],
    "monitor": ["widescreen", "lcd", "inch", "resolution", "contrast",
                "panel"],
    "speaker": ["portable", "subwoofer", "surround", "channel", "dock",
                "audio"],
    "printer": ["inkjet", "laser", "duplex", "ppm", "cartridge", "photo"],
    "microwave": ["stainless", "steel", "cubic", "foot", "turntable",
                  "defrost"],
    "router": ["dual", "band", "gigabit", "antenna", "mesh", "ethernet"],
    "toaster": ["slice", "browning", "bagel", "crumb", "tray", "slot"],
}

# Generic filler words, drawn with a Zipf law so the head words appear in
# most descriptions and produce purgeable stop-word blocks.
FILLER = [
    "the", "with", "and", "for", "new", "black", "white", "silver", "model",
    "series", "pro", "plus", "edition", "home", "kitchen", "office", "easy",
    "quality", "design", "power", "energy", "compact", "large", "small",
    "premium", "classic", "digital", "smart", "quiet", "fast", "heavy",
    "duty", "portable", "rechargeable", "adjustable", "automatic", "manual",
    "warranty", "includes", "accessory", "remote", "control", "display",
    "button", "settings", "timer", "capacity", "performance", "technology",
    "system", "value", "pack", "original", "genuine", "certified",
    "refurbished", "lightweight", "durable", "sleek", "modern", "universal",
]

# Dirty-side noise of a Buy title: the chance of a typo per word (and per
# brand), and of dropping a word from a non-sparse title.
TYPO_RATE = 0.08
DROP_RATE = 0.15


@dataclass(frozen=True)
class ERDataset:
    """Container for one generated clean-clean ER instance.

    ``source_a`` / ``source_b`` are pandas frames (one row per profile) with
    a global ``id`` column: source A ids are ``0..nA-1``, source B ids are
    ``nA..nA+nB-1`` — disjoint, so a pair of ids identifies a cross-source
    comparison unambiguously. ``ground_truth`` has columns ``(p1, p2)``
    with ``p1`` from A and ``p2`` from B.
    """

    source_a: pd.DataFrame
    source_b: pd.DataFrame
    ground_truth: pd.DataFrame

    @property
    def n_profiles(self) -> int:
        return len(self.source_a) + len(self.source_b)


def _zipf_weights(n: int, alpha: float = 1.05) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** alpha
    return w / w.sum()


def _typo(word: str, g: np.random.Generator) -> str:
    """Swap two adjacent characters — the classic keyboard slip."""
    if len(word) < 3:
        return word
    i = int(g.integers(0, len(word) - 1))
    return word[:i] + word[i + 1] + word[i] + word[i + 2:]


def _model_code(g: np.random.Generator) -> str:
    letters = "".join(chr(65 + c) for c in g.integers(0, 26, 2))
    return f"{letters}{int(g.integers(100, 9999))}"


def generate(
    *,
    n_entities: int = 1500,
    overlap: float = 0.72,
    seed: int = 7,
    size_mult: int = 1,
) -> ERDataset:
    """Generate the synthetic Abt-Buy instance.

    ``n_entities * size_mult`` real-world entities are drawn; ``overlap`` of
    them appear in both sources (these are the ground-truth matches), the
    rest are split between the sources as non-matching distractors.
    """
    n = n_entities * size_mult
    g = np.random.default_rng(seed)
    filler_w = _zipf_weights(len(FILLER))
    cats = list(CATEGORIES)

    # --- entity universe -------------------------------------------------
    brands = [BRANDS[i] for i in g.integers(0, len(BRANDS), n)]
    categories = [cats[i] for i in g.integers(0, len(cats), n)]
    models = [_model_code(g) for _ in range(n)]
    # Psychological-pricing grid (x9.99). A coarse shared grid keeps the
    # token sets of A.price and B.cost similar enough (J ≈ 0.5) that LSH
    # partitioning learns the demo's "prices" attribute cluster at t=0.3.
    price_grid = np.arange(9.99, 1500, 10.0).round(2)
    prices = g.choice(price_grid, n)
    name_words = [
        list(g.choice(CATEGORIES[categories[i]], size=int(g.integers(2, 5)),
                      replace=False))
        for i in range(n)
    ]

    n_match = int(round(n * overlap))
    rest = np.arange(n_match, n)
    half = (n - n_match) // 2
    a_entities = np.concatenate([np.arange(n_match), rest[:half]])
    b_entities = np.concatenate([np.arange(n_match), rest[half:]])

    # Each catalog has its own boilerplate vocabulary (realistic: different
    # sites share little description style). Keeping the overlap small
    # keeps A.description dissimilar from B.descr, so at LSH threshold 0.3
    # the learned text cluster is {A.name, B.title, B.descr} — the demo's
    # "name with the description" cluster — while A.description falls into
    # the blob, and {A.price, B.cost} form the "prices" cluster.
    filler_a = FILLER[:40]
    filler_b = FILLER[30:]
    w_a = _zipf_weights(len(filler_a))
    w_b = _zipf_weights(len(filler_b))

    # --- source A (clean side: Abt-like) ---------------------------------
    a_rows = []
    for e in a_entities:
        name = f"{brands[e]} {categories[e]} {' '.join(name_words[e])} {models[e]}"
        n_fill = int(g.integers(12, 28))
        fill = list(g.choice(filler_a, size=n_fill, p=w_a))
        desc_tokens = [brands[e], categories[e], *name_words[e], *fill]
        if g.random() < 0.10:
            desc_tokens.append(models[e])
        a_rows.append({
            "id": None,  # assigned below
            "entity": int(e),
            "name": name,
            "description": " ".join(desc_tokens),
            "price": float(prices[e]),
        })

    # --- source B (dirty side: Buy-like) ---------------------------------
    b_rows = []
    for e in b_entities:
        brand = brands[e]
        # ~30% of Buy listings have a "sparse" title: most words dropped
        # and the model code migrated into the description. Those matches
        # survive blocking only through the A.name ↔ B.descr model-code
        # path — exactly the pairs a manual name/description attribute
        # split loses (the demo's Figure 6c/6d debugging scenario).
        sparse = g.random() < 0.35
        eff_drop = 0.85 if sparse else DROP_RATE
        if g.random() < (0.60 if sparse else 0.2):
            brand_t = brand[:4]  # abbreviation
        elif g.random() < TYPO_RATE:
            brand_t = _typo(brand, g)
        else:
            brand_t = brand
        words = []
        for w in [categories[e], *name_words[e]]:
            if g.random() < eff_drop:
                continue
            words.append(_typo(w, g) if g.random() < TYPO_RATE else w)
        model_in_title = not sparse
        title_parts = [brand_t, *words] + ([models[e]] if model_in_title else [])
        n_fill = int(g.integers(6, 16))
        fill = list(g.choice(filler_b, size=n_fill, p=w_b))
        descr_tokens = [*fill]
        if not model_in_title or g.random() < 0.60:
            descr_tokens.append(models[e])
        if g.random() < 0.3:
            descr_tokens.append(brand)
        b_rows.append({
            "id": None,
            "entity": int(e),
            "title": " ".join(title_parts),
            "descr": " ".join(descr_tokens),
            "manufacturer": brand if g.random() < 0.9 else "",
            # Usually the same listed price, occasionally a jittered one.
            "cost": float(prices[e]) if g.random() < 0.8
            else float(round(prices[e] * (1 + (g.random() - 0.5) * 0.1), 2)),
        })

    a = pd.DataFrame(a_rows)
    b = pd.DataFrame(b_rows)
    a["id"] = np.arange(len(a))
    b["id"] = np.arange(len(a), len(a) + len(b))

    ent_to_a = dict(zip(a["entity"], a["id"]))
    ent_to_b = dict(zip(b["entity"], b["id"]))
    shared = sorted(set(ent_to_a) & set(ent_to_b))
    gt = pd.DataFrame({
        "p1": [ent_to_a[e] for e in shared],
        "p2": [ent_to_b[e] for e in shared],
    })
    return ERDataset(
        source_a=a.drop(columns=["entity"]),
        source_b=b.drop(columns=["entity"]),
        ground_truth=gt,
    )


def to_spark(spark: SparkSession, ds: ERDataset) -> tuple[DataFrame, DataFrame, DataFrame]:
    """Lift a generated dataset into Spark DataFrames (A, B, ground truth)."""
    return (
        spark.createDataFrame(pa.table(ds.source_a)),
        spark.createDataFrame(pa.table(ds.source_b)),
        spark.createDataFrame(pa.table(ds.ground_truth)),
    )
