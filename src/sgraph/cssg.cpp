#include "sgraph/cssg.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace xatpg {

std::string ExplicitCssg::label(const std::vector<bool>& state) {
  std::string text(state.size(), '0');
  for (std::size_t i = 0; i < state.size(); ++i)
    if (state[i]) text[i] = '1';
  return text;
}

std::optional<std::uint32_t> ExplicitCssg::find(
    const std::vector<bool>& state) const {
  if (states.empty() || state.size() != states.front().size())
    return std::nullopt;
  return index.find(pack_state(state).data());
}

Cssg::Cssg(const Netlist& netlist, const std::vector<bool>& reset_state,
           const CssgOptions& options)
    : enc_(netlist, options.order, options.reorder), options_(options) {
  XATPG_CHECK_MSG(netlist.is_stable_state(reset_state),
                  "reset state must be stable");
  reset_set_ = enc_.state_minterm_cur(reset_state);
  const Equalities eq = build_relations();
  traverse();
  build_tcr_and_prune(eq);
  build_rings();
  stats_.peak_bdd_nodes = enc_.mgr().peak_nodes();
}

Cssg::Equalities Cssg::build_relations() {
  BddManager& mgr = enc_.mgr();
  const std::size_t n = enc_.num_signals();

  // Prefix/suffix products of per-signal equalities so each gate's "all
  // other signals unchanged" frame condition is built in O(n) total work.
  std::vector<Bdd> eq(n);
  for (SignalId s = 0; s < n; ++s) eq[s] = enc_.eq_cur_next(s);
  std::vector<Bdd> prefix(n + 1), suffix(n + 1);
  prefix[0] = mgr.bdd_true();
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] & eq[i];
  suffix[n] = mgr.bdd_true();
  for (std::size_t i = n; i-- > 0;) suffix[i] = suffix[i + 1] & eq[i];
  const Bdd all_eq = prefix[n];

  const Bdd stable = enc_.stable();

  // R_delta: some excited gate fires (output inverts, all else frozen), or
  // the state is stable and loops to itself.
  Bdd r_delta = stable & all_eq;
  for (SignalId s = 0; s < n; ++s) {
    if (enc_.netlist().is_input(s)) continue;
    const Bdd excited = enc_.cur(s) ^ enc_.target(s);
    const Bdd fires = enc_.cur(s) ^ enc_.next(s);  // next = !cur
    r_delta |= excited & fires & prefix[s] & suffix[s + 1];
  }
  r_delta_ = r_delta;

  // R_I: on a stable state, some non-empty subset of primary inputs flips;
  // gate outputs are unchanged ("no gate has begun to switch yet", §3.2).
  Equalities frame{mgr.bdd_true(), mgr.bdd_true()};
  for (SignalId s = 0; s < n; ++s) {
    if (enc_.netlist().is_input(s)) {
      frame.inputs &= eq[s];
    } else {
      frame.gates &= eq[s];
    }
  }
  r_input_ = stable & frame.gates & !frame.inputs;
  return frame;
}

void Cssg::traverse() {
  // Standard symbolic BFS over R = R_I ∪ R_delta (the TCSG recursion of
  // §3.2, computed as in Coudert/Berthet/Madre).
  BddManager& mgr = enc_.mgr();
  const Bdd relation = r_input_ | r_delta_;
  const Bdd cur_cube = enc_.cur_cube();
  Bdd reached = reset_set_;
  Bdd frontier = reset_set_;
  while (!frontier.is_false()) {
    ++stats_.traversal_iterations;
    const Bdd img_next = mgr.and_exists(relation, frontier, cur_cube);
    const Bdd img = enc_.next_to_cur(img_next);
    frontier = img & !reached;
    reached |= frontier;
  }
  reachable_ = reached;
  stable_reachable_ = reached & enc_.stable();
  stats_.reachable_states = enc_.count_states_cur(reachable_);
  stats_.stable_states = enc_.count_states_cur(stable_reachable_);
}

void Cssg::build_tcr_and_prune(const Equalities& eq) {
  BddManager& mgr = enc_.mgr();

  // S(g, y): y reachable in j gate transitions from a stable reachable
  // state with gate values g once the inputs take y's values (stable y
  // persists via R_delta self-loops).  R_I keeps every gate and R_delta
  // never changes an input, so where a pattern leads depends on g and the
  // new inputs only; the source's input bits are quantified away up front.
  std::vector<std::uint32_t> input_vars;
  for (const SignalId in : enc_.netlist().inputs())
    input_vars.push_back(enc_.cur_var(in));
  Bdd s = mgr.exists(stable_reachable_, mgr.make_cube(input_vars)) & eq.gates;
  // R_delta with present-state renamed to the aux group: Rd(w, y).
  const Bdd r_delta_wy = enc_.cur_to_aux(r_delta_);
  const Bdd aux_cube = enc_.aux_cube();
  for (std::size_t step = 0; step < options_.k; ++step) {
    ++stats_.tcr_steps;
    const Bdd s_gw = enc_.next_to_aux(s);
    const Bdd s_next = mgr.and_exists(s_gw, r_delta_wy, aux_cube);
    if (s_next == s) break;  // all trajectories settled early
    s = s_next;
  }
  // TCR_k(x, y) = SR(x) ∧ (x_in ≠ y_in) ∧ S(x_g, y).
  const Bdd tcr = stable_reachable_ & !eq.inputs & s;
  const auto n_signals = static_cast<std::int64_t>(enc_.num_signals());
  stats_.tcr_pairs = mgr.sat_count(tcr, mgr.num_vars(), n_signals);

  // Sibling analysis: compare the outcome y against every other k-step
  // outcome w of the same source and the same input pattern.  A sibling of
  // a TCR_k pair has y's inputs, so it too differs from the source's; which
  // siblings exist depends on the source's gate values only, so the search
  // runs over S and is restricted to TCR_k afterwards.
  const Bdd s_gw = enc_.next_to_aux(s);
  const Bdd eq_inputs_yw = enc_.cur_to_aux(eq.inputs);
  const Bdd eq_all_yw = eq_inputs_yw & enc_.cur_to_aux(eq.gates);
  const Bdd stable_w = enc_.cur_to_aux(enc_.stable());

  // Non-confluence: a distinct sibling outcome under the same pattern.
  const Bdd nonconf =
      tcr & mgr.and_exists(s_gw, eq_inputs_yw & !eq_all_yw, aux_cube);
  // Oscillation / late settling: an unstable sibling under the same pattern
  // (covers y itself being unstable).
  const Bdd unstable =
      tcr & mgr.and_exists(s_gw, eq_inputs_yw & !stable_w, aux_cube);

  const Bdd stable_y = enc_.cur_to_next(enc_.stable());
  cssg_ = tcr & stable_y & !nonconf & !unstable;

  stats_.nonconfluent_pairs =
      mgr.sat_count(nonconf, mgr.num_vars(), n_signals);
  stats_.unstable_pairs =
      mgr.sat_count(unstable & !nonconf, mgr.num_vars(), n_signals);
  stats_.cssg_edges = mgr.sat_count(cssg_, mgr.num_vars(), n_signals);
}

void Cssg::build_rings() {
  BddManager& mgr = enc_.mgr();
  const Bdd cur_cube = enc_.cur_cube();
  rings_.clear();
  rings_.push_back(reset_set_);
  Bdd reached = reset_set_;
  while (true) {
    const Bdd img_next = mgr.and_exists(cssg_, rings_.back(), cur_cube);
    const Bdd img = enc_.next_to_cur(img_next);
    const Bdd fresh = img & !reached;
    if (fresh.is_false()) break;
    reached |= fresh;
    rings_.push_back(fresh);
  }
  cssg_reachable_ = reached;
  stats_.cssg_reachable_states = enc_.count_states_cur(cssg_reachable_);
}

const Bdd& Cssg::test_mode_reachable() const {
  if (test_mode_reachable_built_) return test_mode_reachable_;
  BddManager& mgr = enc_.mgr();

  // ValidRI(x, z): input step of R_I whose pattern matches some CSSG edge
  // out of x (i.e. the tester is allowed to apply it).
  Bdd eq_inputs_zy = mgr.bdd_true();  // next(z) group vs aux(y) group
  for (SignalId s = 0; s < enc_.num_signals(); ++s)
    if (enc_.netlist().is_input(s))
      eq_inputs_zy &= !(enc_.next(s) ^ enc_.aux(s));
  const Bdd cssg_xw = enc_.next_to_aux(cssg_);
  const Bdd valid_ri =
      r_input_ & mgr.and_exists(cssg_xw, eq_inputs_zy, enc_.aux_cube());

  // Closure of the CSSG-reachable stable states under ValidRI and R_delta.
  const Bdd cur_cube = enc_.cur_cube();
  const Bdd relation = valid_ri | r_delta_;
  Bdd reached = cssg_reachable_;
  Bdd frontier = reached;
  while (!frontier.is_false()) {
    const Bdd img = enc_.next_to_cur(
        mgr.and_exists(relation, frontier, cur_cube));
    frontier = img & !reached;
    reached |= frontier;
  }
  test_mode_reachable_ = reached;
  test_mode_reachable_built_ = true;
  return test_mode_reachable_;
}

Bdd Cssg::image(const Bdd& states) const {
  return enc_.next_to_cur(
      enc_.mgr().and_exists(cssg_, states, enc_.cur_cube()));
}

Bdd Cssg::preimage(const Bdd& states) const {
  const Bdd states_next = enc_.cur_to_next(states);
  return enc_.mgr().exists(cssg_ & states_next, enc_.next_cube());
}

std::vector<bool> Cssg::input_values_of(const std::vector<bool>& state) const {
  std::vector<bool> values;
  values.reserve(enc_.netlist().inputs().size());
  for (const SignalId in : enc_.netlist().inputs()) values.push_back(state[in]);
  return values;
}

std::optional<Justification> Cssg::justify(const Bdd& targets) const {
  // Find the innermost onion ring touching the target set, then walk the
  // rings backwards picking one concrete predecessor per step.
  std::size_t hit = rings_.size();
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    if (!(rings_[i] & targets).is_false()) {
      hit = i;
      break;
    }
  }
  if (hit == rings_.size()) return std::nullopt;

  Justification result;
  std::vector<bool> state = enc_.pick_state_cur(rings_[hit] & targets);
  result.final_state = state;
  std::vector<std::vector<bool>> vectors_rev;
  for (std::size_t i = hit; i > 0; --i) {
    vectors_rev.push_back(input_values_of(state));
    const Bdd preds = preimage(enc_.state_minterm_cur(state)) & rings_[i - 1];
    XATPG_CHECK_MSG(!preds.is_false(), "onion rings are inconsistent");
    state = enc_.pick_state_cur(preds);
  }
  result.vectors.assign(vectors_rev.rbegin(), vectors_rev.rend());
  return result;
}

ExplicitCssg Cssg::extract_explicit() const {
  LazyCssg graph(*this);
  graph.complete();
  return std::move(graph).take();
}

namespace {
/// Safety limit for explicit state enumeration.
constexpr std::size_t kMaxExplicitStates = 200000;
}  // namespace

LazyCssg::LazyCssg(const Cssg& cssg)
    : cssg_(&cssg) {
  const SymbolicEncoding& enc = cssg.encoding();
  graph_.index = PackedRowIndex(state_words(enc.num_signals()));
  for (const SignalId in : cssg.netlist().inputs())
    input_vars_.push_back(enc.cur_var(in));
  applied_key_.resize(1 + state_words(input_vars_.size()));
  applied_keys_ = PackedRowIndex(applied_key_.size());
  // rings()[0] is the reset state.
  enc.append_state_rows_cur(cssg.rings().front(), rows_);
  intern(rows_.data());
  cur_cube_ = enc.cur_cube();
}

std::uint32_t LazyCssg::intern(const StateWord* row) {
  if (const auto known = graph_.index.find(row)) return *known;
  XATPG_CHECK_MSG(graph_.states.size() < kMaxExplicitStates,
                  "explicit CSSG exceeds state limit");
  const std::uint32_t id = graph_.index.insert(row);
  graph_.states.push_back(unpack_state(row, cssg_->encoding().num_signals()));
  const auto& inputs = cssg_->netlist().inputs();
  std::vector<bool> values(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    values[i] = test_bit(row, inputs[i]);
  graph_.inputs.push_back(std::move(values));
  graph_.edges.emplace_back();
  built_.push_back(false);
  counts_.push_back(kUncounted);
  return id;
}

Bdd LazyCssg::image(std::uint32_t id) const {
  const SymbolicEncoding& enc = cssg_->encoding();
  return enc.next_to_cur(enc.mgr().and_exists(
      cssg_->relation(), enc.state_minterm_cur(graph_.states[id]),
      cur_cube_));
}

const std::vector<std::uint32_t>& LazyCssg::successors(std::uint32_t id) {
  if (built_[id]) return graph_.edges[id];
  const std::size_t width = graph_.index.width();
  rows_.clear();
  cssg_->encoding().append_state_rows_cur(image(id), rows_);
  std::vector<std::uint32_t> list;
  list.reserve(rows_.size() / width);
  for (std::size_t r = 0; r < rows_.size(); r += width)
    list.push_back(intern(rows_.data() + r));
  list_ids_ += list.size();
  graph_.edges[id] = std::move(list);
  built_[id] = true;
  ++lists_built_;
  return graph_.edges[id];
}

std::uint64_t LazyCssg::successor_count(std::uint32_t id) {
  if (built_[id]) return graph_.edges[id].size();
  if (counts_[id] == kUncounted)
    counts_[id] = cssg_->encoding().count_state_rows_cur(image(id));
  return counts_[id];
}

std::uint32_t LazyCssg::successor_at(std::uint32_t id, std::uint64_t rank) {
  if (built_[id]) {
    XATPG_CHECK_MSG(rank < graph_.edges[id].size(),
                    "successor rank out of range");
    return graph_.edges[id][rank];
  }
  const StateWord key[2] = {id, rank};
  if (const auto known = ranked_keys_.find(key)) return ranked_[*known];
  rows_.resize(graph_.index.width());
  cssg_->encoding().state_row_at_cur(image(id), rank, rows_.data());
  const std::uint32_t to = intern(rows_.data());
  ranked_keys_.insert(key);
  ranked_.push_back(to);
  // A new key takes the next number.
  applied_key(id, graph_.inputs[to]);
  if (applied_keys_.insert(applied_key_.data()) == applied_.size())
    applied_.push_back(to);
  return to;
}

void LazyCssg::applied_key(std::uint32_t id, const std::vector<bool>& inputs) {
  std::fill(applied_key_.begin(), applied_key_.end(), StateWord{0});
  applied_key_[0] = id;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (inputs[i]) set_bit(applied_key_.data() + 1, i);
}

std::optional<std::uint32_t> LazyCssg::successor_applying(
    std::uint32_t id, const std::vector<bool>& inputs) {
  if (inputs.size() != input_vars_.size()) return std::nullopt;
  if (built_[id]) {
    for (const std::uint32_t to : graph_.edges[id])
      if (graph_.inputs[to] == inputs) return to;
    return std::nullopt;
  }
  applied_key(id, inputs);
  if (const auto known = applied_keys_.find(applied_key_.data()))
    return applied_[*known];
  // CSSG_k keeps a pattern only when it has one outcome, so the image's
  // states with these inputs are none or the list's one entry applying
  // them.
  const SymbolicEncoding& enc = cssg_->encoding();
  const Bdd hit = image(id) & enc.mgr().make_minterm(input_vars_, inputs);
  if (hit.is_false()) return std::nullopt;
  rows_.resize(graph_.index.width());
  enc.state_row_at_cur(hit, 0, rows_.data());
  const std::uint32_t to = intern(rows_.data());
  applied_keys_.insert(applied_key_.data());
  applied_.push_back(to);
  return to;
}

void LazyCssg::complete() {
  std::vector<std::uint32_t> worklist;
  for (auto id = static_cast<std::uint32_t>(built_.size()); id-- > 0;)
    if (!built_[id]) worklist.push_back(id);
  while (!worklist.empty()) {
    const std::uint32_t id = worklist.back();
    worklist.pop_back();
    // The states this list reaches first are the ids it interns: push them
    // in list order, as the depth-first walk always has.
    const auto first_new = static_cast<std::uint32_t>(graph_.states.size());
    successors(id);
    for (auto to = first_new; to < graph_.states.size(); ++to)
      worklist.push_back(to);
  }
}

std::string Cssg::to_dot(const ExplicitCssg& graph) const {
  const Netlist& netlist = enc_.netlist();
  const auto& inputs = netlist.inputs();
  std::ostringstream os;
  os << "digraph cssg {\n  rankdir=LR;\n";
  for (std::uint32_t id = 0; id < graph.states.size(); ++id) {
    os << "  s" << id << " [label=\"" << ExplicitCssg::label(graph.states[id])
       << "\"" << (id == 0 ? " shape=doublecircle" : "") << "];\n";
  }
  for (std::uint32_t id = 0; id < graph.states.size(); ++id) {
    for (const std::uint32_t to : graph.edges[id]) {
      os << "  s" << id << " -> s" << to << " [label=\"";
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (graph.inputs[id][i] != graph.inputs[to][i])
          os << netlist.signal_name(inputs[i])
             << (graph.inputs[to][i] ? "+" : "-");
      }
      os << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace xatpg
