#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "noise/noise_model.hpp"

/// Compile-once stochastic Pauli trajectories.
///
/// instrument() runs at compile time: it copies the circuit, inserting one
/// GateKind::NoiseSlot identity gate after each (noisy gate, qubit) pair
/// the model matches. Slots are real gates, so everything structural —
/// partitioning, lowering, the distributed exchange schedule — accounts
/// for them exactly once, and an un-noisy execute() of the instrumented
/// plan applies them as exact no-ops (the ideal circuit).
///
/// At execute time each trajectory is fully determined by one 64-bit
/// seed: sample_ops() draws a concrete operator per slot from the seed's
/// RNG stream (state-independent probabilities — see noise_model.hpp),
/// and dist::materialize substitutes those operators into the reserved
/// slots without touching any other compile artifact. Shot sampling and
/// readout corruption use separate streams derived from the same seed
/// (shot_seed / readout apply_readout), so recording the per-trajectory
/// seeds is enough to replay any trajectory bit-identically.
namespace hisim::noise {

/// One reserved insertion point: the slot gate's qubit (original circuit
/// numbering) and the channel it samples from.
struct Slot {
  Qubit qubit = 0;
  unsigned channel = 0;  // index into CompiledNoise::channels
};

/// The compile-side noise artifact an ExecutionPlan carries: the channel
/// table, the reserved slots (id order == slot-gate order in the
/// instrumented circuit), and the per-qubit readout confusion.
struct CompiledNoise {
  std::vector<Channel> channels;
  std::vector<Slot> slots;
  /// Per-qubit readout confusion; empty when the model has none.
  std::vector<ReadoutError> readout;

  bool has_readout() const { return !readout.empty(); }
  bool empty() const { return slots.empty() && readout.empty(); }
};

struct Instrumented {
  Circuit circuit;
  CompiledNoise noise;
};

/// Builds the instrumented copy of `c` under `model`: after every gate,
/// for each qubit it touches, one NoiseSlot gate per matching channel.
/// Parameter registry, gate order, and all original gates are preserved.
Instrumented instrument(const Circuit& c, const NoiseModel& model);

/// The seed of trajectory `index` in the stream rooted at `base`
/// (SplitMix64 over the index, so trajectories are independent and any
/// subset can be replayed without running the others).
std::uint64_t trajectory_seed(std::uint64_t base, std::uint64_t index);

/// The shot-sampling seed derived from a trajectory seed (a stream
/// disjoint from the noise-sampling and readout streams).
std::uint64_t shot_seed(std::uint64_t traj_seed);

/// Samples one concrete operator per slot, in slot-id order, from the
/// trajectory's noise stream. Each returned Gate acts on canonical qubit
/// 0; dist::materialize rewrites the qubit to the slot's (possibly
/// remapped) position. Empty when `cn` has no slots.
std::vector<Gate> sample_ops(const CompiledNoise& cn,
                             std::uint64_t traj_seed);

/// Applies the per-qubit readout confusion to sampled bitstrings in
/// place, using the readout stream of `traj_seed`. No-op when the model
/// has no readout error.
void apply_readout(std::vector<Index>& samples, const CompiledNoise& cn,
                   std::uint64_t traj_seed);

/// Deep validator (see common/check.hpp): aborts unless the NoiseSlot
/// gates of `c` carry exactly the slot ids {0, ..., cn.slots.size() - 1},
/// each exactly once (dense and unique — sample_ops indexes by id, so a
/// duplicated or missing id silently misroutes sampled operators), on the
/// qubit the slot reserved, with every slot's channel index in range.
/// Checked builds run this through ExecutionPlan::validate(); tests
/// corrupt a slot id and assert the abort.
void validate_slots(const Circuit& c, const CompiledNoise& cn);

}  // namespace hisim::noise
