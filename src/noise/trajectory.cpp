#include "noise/trajectory.hpp"

#include <map>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace hisim::noise {
namespace {

// Stream constants XORed into a trajectory seed so the noise, shot, and
// readout draws of one trajectory never share an RNG sequence.
constexpr std::uint64_t kShotStream = 0x5a0b7c9d11e2f381ull;
constexpr std::uint64_t kReadoutStream = 0x93c467e37db0c7a4ull;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Instrumented instrument(const Circuit& c, const NoiseModel& model) {
  Instrumented out;
  Circuit ic(c.num_qubits(), c.name());
  // Re-registering in order preserves parameter ids, so symbolic gates
  // keep their expressions intact.
  for (const std::string& p : c.param_names()) ic.param(p);

  // Channel table deduplicated by model rule (most slots share channels);
  // the model outlives this call, so rule pointers are stable keys.
  std::map<const Channel*, unsigned> channel_index;
  const auto intern = [&](const Channel* ch) {
    const auto it = channel_index.find(ch);
    if (it != channel_index.end()) return it->second;
    const unsigned idx = static_cast<unsigned>(out.noise.channels.size());
    out.noise.channels.push_back(*ch);
    channel_index.emplace(ch, idx);
    return idx;
  };

  for (const Gate& g : c.gates()) {
    HISIM_CHECK_MSG(g.kind != GateKind::NoiseSlot,
                    "circuit is already noise-instrumented");
    ic.add(g);
    for (Qubit q : g.qubits) {
      for (const Channel* ch : model.channels_for(g, q)) {
        const unsigned id = static_cast<unsigned>(out.noise.slots.size());
        out.noise.slots.push_back(Slot{q, intern(ch)});
        ic.add(Gate::noise_slot(q, id));
      }
    }
  }

  if (model.has_readout()) {
    out.noise.readout.resize(c.num_qubits());
    for (Qubit q = 0; q < c.num_qubits(); ++q)
      out.noise.readout[q] = model.readout_for(q);
  }
  out.circuit = std::move(ic);
  return out;
}

std::uint64_t trajectory_seed(std::uint64_t base, std::uint64_t index) {
  return splitmix64(base ^ splitmix64(index + 1));
}

std::uint64_t shot_seed(std::uint64_t traj_seed) {
  return splitmix64(traj_seed ^ kShotStream);
}

std::vector<Gate> sample_ops(const CompiledNoise& cn,
                             std::uint64_t traj_seed) {
  if (cn.slots.empty()) return {};
  std::vector<Gate> ops;
  ops.reserve(cn.slots.size());
  Rng rng(traj_seed);
  for (const Slot& slot : cn.slots) {
    const Channel& ch = cn.channels[slot.channel];
    // One uniform draw per slot, walked against the cumulative branch
    // probabilities (ties broken toward the earlier branch; fp residue
    // past the last cumulative value falls back to the last branch).
    const double u = rng.uniform();
    double acc = 0.0;
    const Channel::Op* chosen = &ch.ops.back();
    for (const Channel::Op& op : ch.ops) {
      acc += op.prob;
      if (u < acc) {
        chosen = &op;
        break;
      }
    }
    switch (chosen->kind) {
      case GateKind::I: ops.push_back(Gate::i(0)); break;
      case GateKind::X: ops.push_back(Gate::x(0)); break;
      case GateKind::Y: ops.push_back(Gate::y(0)); break;
      case GateKind::Z: ops.push_back(Gate::z(0)); break;
      default: ops.push_back(Gate::kraus({0}, chosen->m)); break;
    }
  }
  return ops;
}

void apply_readout(std::vector<Index>& samples, const CompiledNoise& cn,
                   std::uint64_t traj_seed) {
  if (!cn.has_readout() || samples.empty()) return;
  // Only qubits with a nontrivial confusion consume draws, so adding a
  // clean qubit to a model never perturbs another qubit's stream.
  std::vector<Qubit> noisy;
  for (Qubit q = 0; q < cn.readout.size(); ++q)
    if (!cn.readout[q].trivial()) noisy.push_back(q);
  if (noisy.empty()) return;
  Rng rng(splitmix64(traj_seed ^ kReadoutStream));
  for (Index& s : samples) {
    for (Qubit q : noisy) {
      const bool one = (s >> q) & 1u;
      const double flip = one ? cn.readout[q].p10 : cn.readout[q].p01;
      if (flip > 0.0 && rng.uniform() < flip) s ^= Index{1} << q;
    }
  }
}

void validate_slots(const Circuit& c, const CompiledNoise& cn) {
  const std::size_t n = cn.slots.size();
  std::vector<bool> seen(n, false);
  std::size_t found = 0;
  for (std::size_t i = 0; i < c.num_gates(); ++i) {
    const Gate& g = c.gate(i);
    if (g.kind != GateKind::NoiseSlot) continue;
    ++found;
    const unsigned id = g.noise_slot_id();
    HISIM_INVARIANT(id < n, "noise slot id " << id << " out of range (plan "
                                             << "reserved " << n << " slots)");
    HISIM_INVARIANT(!seen[id], "noise slot id " << id
                                                << " appears more than once");
    seen[id] = true;
    HISIM_INVARIANT(g.qubits.size() == 1 && g.qubits[0] == cn.slots[id].qubit,
                    "noise slot " << id << " sits on qubit " << g.qubits[0]
                                  << ", reserved for qubit "
                                  << cn.slots[id].qubit);
  }
  HISIM_INVARIANT(found == n, "circuit carries " << found
                                                 << " noise slots, plan "
                                                 << "reserved " << n);
  for (std::size_t id = 0; id < n; ++id)
    HISIM_INVARIANT(cn.slots[id].channel < cn.channels.size(),
                    "noise slot " << id << " references channel "
                                  << cn.slots[id].channel << " of "
                                  << cn.channels.size());
}

}  // namespace hisim::noise
