#include "atpg/fault_sim.hpp"

#include <algorithm>

#include "sim/parallel.hpp"
#include "util/check.hpp"
#include "util/packed.hpp"

namespace xatpg {

FaultSimulator::FaultSimulator(const Netlist& good, const Fault& fault,
                               const std::vector<bool>& reset_state,
                               const FaultSimOptions& options)
    : fault_(fault),
      options_(options),
      num_good_inputs_(good.inputs().size()),
      outputs_(good.outputs()) {
  XATPG_CHECK(reset_state.size() == good.num_signals());
  const Netlist faulty = apply_fault(good, fault);
  circuit_ = PackedCircuit(faulty);
  const std::size_t w = circuit_.words();

  // apply_fault keeps every good signal id, so good input i drives the
  // faulty signal of the same id, unless the fault ties it.
  input_mask_.assign(w, 0);
  for (std::size_t i = 0; i < good.inputs().size(); ++i) {
    const SignalId in = good.inputs()[i];
    if (!faulty.is_input(in)) continue;
    input_map_.emplace_back(i, in);
    set_bit(input_mask_.data(), in);
  }
  output_mask_.assign(w, 0);
  for (const SignalId po : outputs_) set_bit(output_mask_.data(), po);

  // Reset drives every (shared) signal to the good reset value; the faulty
  // circuit then relaxes freely.  No strobe is compared at reset time.
  const std::vector<StateWord> start =
      pack_state(fault_initial_state(fault, reset_state));
  ++settles_;
  if (!circuit_.settle(start.data(), options_.k, scratch_, reset_candidates_)) {
    reset_candidates_.clear();
    reset_status_ = DetectStatus::GaveUp;  // faulty circuit does not even reset
  } else {
    sort_unique_rows(reset_candidates_, w);
    if (reset_candidates_.size() / w > options_.candidate_cap)
      reset_status_ = DetectStatus::GaveUp;
  }
  candidates_ = reset_candidates_;
  status_ = reset_status_;
  memo_index_ = PackedRowIndex(w);
}

void FaultSimulator::reset() {
  candidates_ = reset_candidates_;
  status_ = reset_status_;
}

// The memo never changes a status.  settle() is a pure function of the
// faulty circuit, the start state and k, all fixed per key, so an answer
// read back is the answer the kernel would give again.  step() gives up
// iff some candidate's start is unsettled, or the deduplicated union of
// the consistent rows exceeds candidate_cap at a candidate boundary;
// storing each entry's rows sorted and distinct moves neither condition,
// and the final sort makes the consistent set the same words.
FaultSimulator::Settled FaultSimulator::settle_memoized(
    const StateWord* start) {
  if (const auto known = memo_index_.find(start)) {
    ++settles_memoized_;
    return memo_[*known];
  }
  const std::size_t w = circuit_.words();
  ++settles_;
  Settled entry;
  settled_.clear();
  entry.settled = circuit_.settle(start, options_.k, scratch_, settled_);
  entry.rows_begin = memo_rows_.size();
  if (entry.settled) {
    sort_unique_rows(settled_, w);
    memo_rows_.insert(memo_rows_.end(), settled_.begin(), settled_.end());
  }
  entry.rows_end = memo_rows_.size();
  memo_index_.insert(start);
  memo_.push_back(entry);
  return entry;
}

DetectStatus FaultSimulator::step(const std::vector<bool>& input_values,
                                  const std::vector<bool>& good_state) {
  if (status_ != DetectStatus::Undetermined) return status_;
  XATPG_CHECK(input_values.size() == num_good_inputs_);
  ++steps_;
  const std::size_t w = circuit_.words();
  applied_.assign(w, 0);
  for (const auto& [i, in] : input_map_)
    if (input_values[i]) set_bit(applied_.data(), in);
  expected_.assign(w, 0);
  for (const SignalId po : outputs_)
    if (good_state[po]) set_bit(expected_.data(), po);

  // The status is a function of sets, so candidate order does not matter:
  // GaveUp iff some candidate's settling exceeds k or the consistent union
  // exceeds the cap, Detected iff the union is empty.
  next_.clear();
  start_.resize(w);
  for (std::size_t c = 0; c < candidates_.size(); c += w) {
    for (std::size_t j = 0; j < w; ++j)
      start_[j] = (candidates_[c + j] & ~input_mask_[j]) | applied_[j];
    const Settled entry = settle_memoized(start_.data());
    if (!entry.settled) {
      status_ = DetectStatus::GaveUp;
      return status_;
    }
    // Strobe: executions whose primary outputs differ from the expected
    // response have been flagged by the tester — keep only the others.
    for (std::size_t r = entry.rows_begin; r < entry.rows_end; r += w) {
      const StateWord* row = memo_rows_.data() + r;
      bool mismatch = false;
      for (std::size_t j = 0; j < w; ++j)
        mismatch |= ((row[j] ^ expected_[j]) & output_mask_[j]) != 0;
      if (!mismatch) next_.insert(next_.end(), row, row + w);
    }
    if (next_.size() / w > options_.candidate_cap) {
      sort_unique_rows(next_, w);
      if (next_.size() / w > options_.candidate_cap) {
        status_ = DetectStatus::GaveUp;
        return status_;
      }
    }
  }
  sort_unique_rows(next_, w);
  candidates_.swap(next_);
  if (candidates_.empty()) status_ = DetectStatus::Detected;
  return status_;
}

std::vector<std::size_t> ternary_screen(
    const Netlist& netlist, const std::vector<bool>& reset_state,
    const std::vector<Fault>& faults,
    const std::vector<std::vector<bool>>& vectors) {
  std::vector<std::size_t> out;
  // One pass per slice of up to 63 faults: lane 0 carries the fault-free
  // circuit, lane i + 1 the slice's i-th fault.
  constexpr std::size_t kSlice = ParallelTernarySim::kMaxFaults;
  for (std::size_t begin = 0; begin < faults.size(); begin += kSlice) {
    const std::size_t count = std::min(kSlice, faults.size() - begin);
    const auto first = faults.begin() + static_cast<std::ptrdiff_t>(begin);
    ParallelTernarySim sim(
        netlist,
        std::vector<Fault>(first, first + static_cast<std::ptrdiff_t>(count)));
    sim.load_state(reset_state);

    std::uint64_t detected = 0;
    for (const auto& vec : vectors) {
      sim.settle(vec);
      for (const SignalId po : netlist.outputs()) {
        // A faulty lane is caught when both values are definite and differ.
        const std::uint64_t good1 = sim.lanes_definite(po, true);
        const std::uint64_t good0 = sim.lanes_definite(po, false);
        if (good1 & 1ull) detected |= good0;
        if (good0 & 1ull) detected |= good1;
      }
    }
    for (std::size_t i = 0; i < count; ++i)
      if (detected & (1ull << (i + 1))) out.push_back(begin + i);
  }
  return out;
}

}  // namespace xatpg
