// Word-parallel two-rail ternary fault simulation (§5.4): the good circuit
// and 63 faulty circuits are simulated per pass, one per bit lane.  Each
// signal carries two 64-bit rails (r1 = "can be 1", r0 = "can be 0");
// (1,0)=1, (0,1)=0, (1,1)=Φ.
// Two-rail gate evaluation *is* the ternary extension of the gate function,
// so Eichelberger's algorithms run unchanged across all lanes at once —
// this combines the "parallel" [Seshu] and "ternary" [Eichelberger]
// simulation techniques exactly as the paper prescribes.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/ternary.hpp"

namespace xatpg {

/// Two-rail ternary word: one value per bit lane.
struct Rail {
  std::uint64_t r1 = 0;  ///< lane can be 1
  std::uint64_t r0 = 0;  ///< lane can be 0

  bool operator==(const Rail&) const = default;
};

inline Rail rail_all(Ternary t) {
  switch (t) {
    case Ternary::V0: return Rail{0, ~0ull};
    case Ternary::V1: return Rail{~0ull, 0};
    default: return Rail{~0ull, ~0ull};
  }
}

/// Ternary value of one lane.
Ternary rail_lane(const Rail& r, unsigned lane);
/// Set one lane to a ternary value.
void set_rail_lane(Rail& r, unsigned lane, Ternary t);

/// Algebra instance for eval_gate over Rail words.
struct RailOps {
  Rail zero() const { return Rail{0, ~0ull}; }
  Rail one() const { return Rail{~0ull, 0}; }
  Rail and_(const Rail& a, const Rail& b) const {
    return Rail{a.r1 & b.r1, a.r0 | b.r0};
  }
  Rail or_(const Rail& a, const Rail& b) const {
    return Rail{a.r1 | b.r1, a.r0 & b.r0};
  }
  Rail not_(const Rail& a) const { return Rail{a.r0, a.r1}; }
};

/// 64-lane parallel ternary simulator of a circuit and up to 63 stuck-at
/// faults in it: lane 0 carries the fault-free circuit and lane i + 1 the
/// circuit with faults[i].  After settle(), a lane whose primary output is
/// definite and differs from lane 0's definite value has detected its
/// fault.
class ParallelTernarySim {
 public:
  static constexpr std::size_t kMaxFaults = 63;

  ParallelTernarySim(const Netlist& netlist, std::vector<Fault> faults);

  /// Load the same starting boolean state into every lane.
  void load_state(const std::vector<bool>& state);

  /// Apply an input vector to all lanes and settle (Algorithm A + B).
  void settle(const std::vector<bool>& input_values);

  Ternary value(SignalId s, unsigned lane) const {
    return rail_lane(state_[s], lane);
  }

  /// Lanes (mask) in which signal s currently has the definite value v.
  std::uint64_t lanes_definite(SignalId s, bool v) const;

  /// Lanes in which any signal is Φ (conservatively invalid lanes).
  std::uint64_t lanes_with_unknown() const;

 private:
  /// Force faults_[i]'s lane of `r` to its stuck value.
  void force(Rail& r, std::uint32_t i) const;
  Rail eval_target(SignalId s) const;
  void inject_output_faults();

  const Netlist* netlist_;
  std::vector<Fault> faults_;
  // Indices into faults_ per gate, for fast lookup: pin_faults_[g] lists
  // the faults on gate g's pins, output_faults_[g] those on its output.
  std::vector<std::vector<std::uint32_t>> pin_faults_;
  std::vector<std::vector<std::uint32_t>> output_faults_;
  std::vector<Rail> state_;
};

}  // namespace xatpg
