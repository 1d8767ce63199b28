"""The three attention views of SeqFM (Sections III-B, III-C, III-D).

Each view applies a single self-attention head to a feature matrix and
compresses the result with intra-view pooling (Eq. 14):

* :class:`StaticView` — unmasked attention over the n° static features.
* :class:`DynamicView` — causally masked attention over the n˙-step dynamic
  sequence, with padding keys additionally blocked.
* :class:`CrossView` — attention over the vertical concatenation [E°; E˙]
  where the mask only allows static↔dynamic interactions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.core import masks as mask_lib
from repro.nn.attention import SelfAttention
from repro.nn.module import Module


# --------------------------------------------------------------------------- #
# Mask assembly shared by the autograd views below and the graph-free serving
# engine (repro.serving.engine) — keep a single source of truth for which
# feature pairs each view may attend to.
# --------------------------------------------------------------------------- #
def dynamic_attention_mask(seq_len: int, valid_mask: np.ndarray) -> np.ndarray:
    """Per-batch mask of the dynamic view: causal + padding keys (Eq. 10)."""
    causal = mask_lib.causal_mask(seq_len)[None, :, :]
    padding = mask_lib.padding_key_mask(valid_mask)
    return mask_lib.combine_masks(causal, padding)


def cross_valid_mask(num_static: int, valid_mask: np.ndarray) -> np.ndarray:
    """Validity of the concatenated [E°; E˙] rows: statics always valid."""
    batch = np.asarray(valid_mask).shape[0]
    static_valid = np.ones((batch, num_static), dtype=np.float64)
    return np.concatenate([static_valid, np.asarray(valid_mask, dtype=np.float64)], axis=1)


def cross_attention_mask(
    num_static: int,
    seq_len: int,
    combined_valid: np.ndarray,
    full_attention: bool = False,
    query_rows: Optional[int] = None,
) -> np.ndarray:
    """Per-batch mask of the cross view (Eq. 13): cross-only + padding keys.

    ``full_attention`` drops the cross-only restriction (ablation variant) and
    keeps just the padding mask, which broadcasts over every query row.
    ``query_rows`` keeps only the first rows of the cross-only mask (the
    ranking path needs the n° static query rows alone).
    """
    padding = mask_lib.padding_key_mask(combined_valid)
    if full_attention:
        return padding
    cross = mask_lib.cross_view_mask(num_static, seq_len)[None, :query_rows, :]
    return mask_lib.combine_masks(cross, padding)


class StaticView(Module):
    """Self-attention over static feature embeddings (Eq. 6-8) + pooling."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.attention = SelfAttention(dim, rng=rng)

    def forward(self, static_embeddings: Tensor) -> Tensor:
        """``static_embeddings``: (batch, n_static, d) → pooled (batch, d)."""
        interactions = self.attention(static_embeddings)
        return F.mean_pool(interactions, axis=-2)


class DynamicView(Module):
    """Causally masked self-attention over the dynamic sequence (Eq. 9-10)."""

    def __init__(self, dim: int, pooling: str = "mean", rng: Optional[np.random.Generator] = None):
        super().__init__()
        if pooling not in ("mean", "last"):
            raise ValueError("pooling must be 'mean' or 'last'")
        self.attention = SelfAttention(dim, rng=rng)
        self.pooling = pooling

    def forward(self, dynamic_embeddings: Tensor, valid_mask: np.ndarray) -> Tensor:
        """``dynamic_embeddings``: (batch, n_dyn, d); ``valid_mask``: (batch, n_dyn)."""
        seq_len = dynamic_embeddings.shape[-2]
        attention_mask = dynamic_attention_mask(seq_len, valid_mask)
        interactions = self.attention(dynamic_embeddings, mask=attention_mask)
        if self.pooling == "last":
            return interactions[:, -1, :]
        return F.masked_mean_pool(interactions, valid_mask, axis=-2)


class CrossView(Module):
    """Masked self-attention over [E°; E˙] keeping only cross interactions (Eq. 11-13)."""

    def __init__(self, dim: int, full_attention: bool = False,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.attention = SelfAttention(dim, rng=rng)
        # ``full_attention`` disables the cross-only mask (ablation variant).
        self.full_attention = full_attention

    def forward(
        self,
        static_embeddings: Tensor,
        dynamic_embeddings: Tensor,
        valid_mask: np.ndarray,
    ) -> Tensor:
        num_static = static_embeddings.shape[-2]
        seq_len = dynamic_embeddings.shape[-2]
        combined = Tensor.concatenate([static_embeddings, dynamic_embeddings], axis=-2)

        # Static positions are always valid; dynamic positions follow the mask.
        combined_valid = cross_valid_mask(num_static, valid_mask)
        attention_mask = cross_attention_mask(
            num_static, seq_len, combined_valid, full_attention=self.full_attention
        )

        interactions = self.attention(combined, mask=attention_mask)
        return F.masked_mean_pool(interactions, combined_valid, axis=-2)
