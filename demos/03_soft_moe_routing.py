# Soft mixture-of-experts routing: every token contributes fractionally to
# every slot, each slot visits exactly one expert, and the expert outputs are
# mixed back per token. Expert work is O(num_slots), not O(num_tokens). A
# layer stores its experts stacked on a leading axis and runs all of them in
# one call.

import math

import numpy as np

import csmoe.softmoe as softmoe
from csmoe.model import CsmoeConfig, init_model
from csmoe.numerics import Tensor
from csmoe.softmoe import route, moe_forward

rng = np.random.default_rng(0)
dim, num_slots = 16, 4
# one Soft MoE layer of a small model, initialised as the model initialises it
cfg = CsmoeConfig(patch_size=8, image_side=16, enc_dim=dim, dec_dim=8, heads=2, dec_heads=2,
                  enc_layers_modality=1, enc_layers_shared=1, dec_layers=1,
                  num_slots=num_slots, proj_dim=8)
layer = init_model(cfg).enc_shared[0].moe

tokens = Tensor(rng.uniform(-1, 1, (49, dim)))
routing = route(tokens, layer)
print(f"dispatch {routing.dispatch.shape}: rows sum to "
      f"{routing.dispatch.data.sum(axis=1).round(12)[:3]} ...")
print(f"combine  {routing.combine.shape}: columns sum to "
      f"{routing.combine.data.sum(axis=0).round(12)[:3]} ...")

# The headline economy: counted by wrapping the expert feed-forward, the rows
# that reach the experts stay at num_slots no matter how many tokens arrive,
# all of them in one call on the [slots, dim] slots as routing leaves them:
# slot s goes to expert s % num_experts inside that call.
calls = []
real_feed_forward = softmoe.feed_forward


def counting_feed_forward(x, params):
    calls.append(x.shape)
    return real_feed_forward(x, params)


softmoe.feed_forward = counting_feed_forward
for num_tokens in (16, 49, 196):
    calls.clear()
    moe_forward(Tensor(rng.uniform(-1, 1, (num_tokens, dim))), layer)
    print(f"tokens={num_tokens:4d} -> {len(calls)} expert call on {list(calls[0])}: "
          f"{math.prod(calls[0][:-1])} rows")
softmoe.feed_forward = real_feed_forward

# Lowering the dispatch temperature sharpens each slot onto fewer tokens.
layer.slot_embeddings.data = rng.uniform(-1, 1, (num_slots, dim))
for temperature in (2.0, 1.0, 0.1, 0.01):
    layer.temperature = temperature
    r = route(tokens, layer)
    print(f"temperature {temperature:5.2f}: mean max dispatch weight "
          f"{r.dispatch.data.max(axis=1).mean():.3f}")
