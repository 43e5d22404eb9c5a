#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <sstream>

namespace record::bdd {

BddManager::BddManager()
    : unique_(kInitialUniqueSlots, kFalse),
      ite_cache_(std::size_t{1} << kComputedTableBits) {
  // Slot 0: constant FALSE, slot 1: constant TRUE. Constants sit below every
  // variable in the order (kConstLevel).
  nodes_.push_back(Node{kConstLevel, kFalse, kFalse});
  nodes_.push_back(Node{kConstLevel, kTrue, kTrue});
}

int BddManager::new_var(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

Ref BddManager::literal(int v, bool positive) {
  assert(v >= 0 && v < var_count());
  std::lock_guard<std::mutex> lock(mu_);
  return positive ? make_node(v, kFalse, kTrue) : make_node(v, kTrue, kFalse);
}

std::size_t BddManager::node_hash(int var, Ref lo, Ref hi) {
  // splitmix64 finaliser over the packed triple, as ite_slot.
  std::uint64_t x = (std::uint64_t{lo} << 32 | hi) ^
                    (std::uint64_t{static_cast<std::uint32_t>(var)} *
                     0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

Ref BddManager::make_node(int var, Ref lo, Ref hi) {
  if (lo == hi) return lo;  // reduction rule
  const std::size_t mask = unique_.size() - 1;
  std::size_t i = node_hash(var, lo, hi) & mask;
  for (; unique_[i] != kFalse; i = (i + 1) & mask) {
    const Node& n = nodes_[unique_[i]];
    if (n.var == var && n.lo == lo && n.hi == hi) return unique_[i];
  }
  Ref r = static_cast<Ref>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  unique_[i] = r;
  // Every node but the two constants is entered.
  if (2 * (nodes_.size() - 2) > unique_.size())
    rehash_unique(2 * unique_.size());
  return r;
}

void BddManager::rehash_unique(std::size_t slots) {
  unique_.assign(slots, kFalse);
  const std::size_t mask = slots - 1;
  for (Ref r = 2; r < nodes_.size(); ++r) {
    const Node& n = nodes_[r];
    std::size_t i = node_hash(n.var, n.lo, n.hi) & mask;
    while (unique_[i] != kFalse) i = (i + 1) & mask;
    unique_[i] = r;
  }
}

std::size_t BddManager::ite_slot(Ref f, Ref g, Ref h) {
  // splitmix64 finaliser over the packed triple; the top bits index.
  std::uint64_t x = (std::uint64_t{f} << 32 | g) ^
                    (std::uint64_t{h} * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x >> (64 - kComputedTableBits));
}

Ref BddManager::ite(Ref f, Ref g, Ref h) {
  std::lock_guard<std::mutex> lock(mu_);
  return ite_rec(f, g, h);
}

Ref BddManager::ite_rec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  const std::size_t slot = ite_slot(f, g, h);
  {
    const IteEntry& e = ite_cache_[slot];
    if (e.f == f && e.g == g && e.h == h) return e.r;
  }

  int top = std::min({level(f), level(g), level(h)});
  auto cofactor = [&](Ref r, bool hi) {
    if (level(r) != top) return r;
    return hi ? node(r).hi : node(r).lo;
  };
  Ref t = ite_rec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  Ref e = ite_rec(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  Ref r = make_node(top, e, t);
  ite_cache_[slot] = IteEntry{f, g, h, r};
  return r;
}

Ref BddManager::restrict(Ref f, int v, bool value) {
  std::lock_guard<std::mutex> lock(mu_);
  return restrict_rec(f, v, value);
}

Ref BddManager::restrict_rec(Ref f, int v, bool value) {
  if (is_const(f)) return f;
  int top = level(f);
  if (top > v) return f;  // v not in f's remaining support
  if (top == v) return value ? node(f).hi : node(f).lo;
  Ref lo = restrict_rec(node(f).lo, v, value);
  Ref hi = restrict_rec(node(f).hi, v, value);
  return make_node(top, lo, hi);
}

Ref BddManager::compose(Ref f, int v, Ref g) {
  // f[v <- g] = ite(g, f|v=1, f|v=0)
  std::lock_guard<std::mutex> lock(mu_);
  return ite_rec(g, restrict_rec(f, v, true), restrict_rec(f, v, false));
}

Ref BddManager::exists(Ref f, int v) {
  // lor(f|v=1, f|v=0) spelled through the unlocked core.
  std::lock_guard<std::mutex> lock(mu_);
  return ite_rec(restrict_rec(f, v, true), kTrue, restrict_rec(f, v, false));
}

Ref BddManager::constrain(Ref f, const std::vector<Ref>& terms,
                          std::size_t* taken) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Ref t : terms) {
    Ref g = ite_rec(f, t, kFalse);
    if (g == kFalse) continue;
    f = g;
    ++*taken;
  }
  return f;
}

bool BddManager::eval(Ref f, const Assignment& a) const {
  std::lock_guard<std::mutex> lock(mu_);
  while (!is_const(f)) {
    int v = node(f).var;
    bool value = false;
    for (const auto& [av, aval] : a) {
      if (av == v) {
        value = aval;
        break;
      }
    }
    f = value ? node(f).hi : node(f).lo;
  }
  return f == kTrue;
}

std::optional<Assignment> BddManager::any_sat(Ref f) const {
  if (f == kFalse) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  Assignment out;
  while (!is_const(f)) {
    const Node& n = node(f);
    if (n.hi != kFalse) {
      out.emplace_back(n.var, true);
      f = n.hi;
    } else {
      out.emplace_back(n.var, false);
      f = n.lo;
    }
  }
  return out;
}

double BddManager::sat_fraction(Ref f,
                                std::unordered_map<Ref, double>& memo) const {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  auto it = memo.find(f);
  if (it != memo.end()) return it->second;
  const Node& n = node(f);
  double r = 0.5 * sat_fraction(n.lo, memo) + 0.5 * sat_fraction(n.hi, memo);
  memo.emplace(f, r);
  return r;
}

std::uint64_t BddManager::sat_count(Ref f, int nvars) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<Ref, double> memo;
  double fraction = sat_fraction(f, memo);
  double count = fraction;
  for (int i = 0; i < nvars; ++i) count *= 2.0;
  return static_cast<std::uint64_t>(count + 0.5);
}

std::vector<int> BddManager::support(Ref f) const {
  std::lock_guard<std::mutex> lock(mu_);
  // A node is created after its children, so it has a larger Ref than any
  // node it reaches. Taking the largest pending Ref first pops all copies
  // of a node in a row, after every parent that pushed them: each node
  // reachable from f is visited once, with no visited set sized to the
  // node table.
  std::vector<bool> vars(names_.size(), false);
  std::priority_queue<Ref> pending;
  pending.push(f);
  Ref last = kFalse;
  while (!pending.empty()) {
    const Ref r = pending.top();
    pending.pop();
    if (is_const(r) || r == last) continue;
    last = r;
    const Node& n = node(r);
    vars[static_cast<std::size_t>(n.var)] = true;
    pending.push(n.lo);
    pending.push(n.hi);
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < vars.size(); ++i)
    if (vars[i]) out.push_back(static_cast<int>(i));
  return out;
}

Literals BddManager::implied(Ref f) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t words = (names_.size() + 63) / 64;
  Literals out{std::vector<std::uint64_t>(words),
               std::vector<std::uint64_t>(words)};
  if (f == kFalse) {
    for (std::size_t v = 0; v < names_.size(); ++v) {
      out.pos[v / 64] |= std::uint64_t{1} << (v % 64);
      out.neg[v / 64] |= std::uint64_t{1} << (v % 64);
    }
    return out;
  }
  // f implies a literal iff every path from f to TRUE takes it. Walk the
  // nodes as support() does, largest Ref first, so every copy of a node
  // pops in a row after all its parents. Each copy carries the literals
  // common to the paths along one incoming edge (a slot of `sets`:
  // positive words, then negative ones); a node's set is the intersection
  // over its copies, and TRUE, the smallest Ref reached, ends the walk.
  std::vector<std::uint64_t> sets(2 * words, 0);
  auto at = [&sets](std::size_t slot) {
    return sets.begin() + static_cast<std::ptrdiff_t>(slot);
  };
  std::priority_queue<std::pair<Ref, std::size_t>> pending;
  pending.emplace(f, 0);
  while (true) {
    const auto [r, slot] = pending.top();
    pending.pop();
    while (!pending.empty() && pending.top().first == r) {
      std::transform(at(slot), at(slot + 2 * words), at(pending.top().second),
                     at(slot), std::bit_and<>());
      pending.pop();
    }
    if (r == kTrue) {
      std::copy_n(at(slot), words, out.pos.begin());
      std::copy_n(at(slot + words), words, out.neg.begin());
      return out;
    }
    const Node& n = node(r);
    const std::size_t v = static_cast<std::size_t>(n.var);
    for (const bool hi : {false, true}) {
      const Ref child = hi ? n.hi : n.lo;
      if (child == kFalse) continue;
      const std::size_t copy = sets.size();
      sets.resize(copy + 2 * words);
      std::copy_n(at(slot), 2 * words, at(copy));
      sets[copy + (hi ? 0 : words) + v / 64] |= std::uint64_t{1} << (v % 64);
      pending.emplace(child, copy);
    }
  }
}

std::string BddManager::to_string(Ref f) const {
  std::lock_guard<std::mutex> lock(mu_);
  return to_string_rec(f);
}

std::string BddManager::to_string_rec(Ref f) const {
  if (f == kFalse) return "0";
  if (f == kTrue) return "1";
  const Node& n = node(f);
  std::ostringstream os;
  os << '(' << var_name(n.var) << " ? " << to_string_rec(n.hi) << " : "
     << to_string_rec(n.lo) << ')';
  return os.str();
}

void BddManager::to_sop_rec(Ref f, std::vector<std::pair<int, bool>>& path,
                            std::vector<std::string>& cubes) const {
  if (f == kFalse) return;
  if (f == kTrue) {
    if (path.empty()) {
      cubes.emplace_back("1");
      return;
    }
    std::ostringstream os;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i) os << '&';
      if (!path[i].second) os << '!';
      os << var_name(path[i].first);
    }
    cubes.push_back(os.str());
    return;
  }
  const Node& n = node(f);
  path.emplace_back(n.var, false);
  to_sop_rec(n.lo, path, cubes);
  path.back().second = true;
  to_sop_rec(n.hi, path, cubes);
  path.pop_back();
}

std::string BddManager::to_sop(Ref f) const {
  if (f == kFalse) return "0";
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, bool>> path;
  std::vector<std::string> cubes;
  to_sop_rec(f, path, cubes);
  std::ostringstream os;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (i) os << " | ";
    os << cubes[i];
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// BitVec

BitVec BitVec::constant(std::uint64_t value, int width) {
  std::vector<Ref> bits(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    bits[static_cast<std::size_t>(i)] =
        ((value >> i) & 1u) ? kTrue : kFalse;
  return BitVec(std::move(bits));
}

BitVec BitVec::slice(int hi, int lo) const {
  assert(hi >= lo && lo >= 0 && hi < width());
  std::vector<Ref> bits(bits_.begin() + lo, bits_.begin() + hi + 1);
  return BitVec(std::move(bits));
}

BitVec BitVec::concat(const BitVec& high, const BitVec& low) {
  std::vector<Ref> bits = low.bits_;
  bits.insert(bits.end(), high.bits_.begin(), high.bits_.end());
  return BitVec(std::move(bits));
}

Ref BitVec::equals_const(BddManager& mgr, std::uint64_t value) const {
  Ref cond = kTrue;
  for (int i = 0; i < width(); ++i) {
    bool want = ((value >> i) & 1u) != 0;
    Ref bit_cond = want ? bits_[static_cast<std::size_t>(i)]
                        : mgr.lnot(bits_[static_cast<std::size_t>(i)]);
    cond = mgr.land(cond, bit_cond);
  }
  return cond;
}

Ref BitVec::equals(BddManager& mgr, const BitVec& other) const {
  assert(width() == other.width());
  Ref cond = kTrue;
  for (int i = 0; i < width(); ++i) {
    Ref same = mgr.lnot(mgr.lxor(bits_[static_cast<std::size_t>(i)],
                                 other.bits_[static_cast<std::size_t>(i)]));
    cond = mgr.land(cond, same);
  }
  return cond;
}

bool BitVec::is_constant() const {
  return std::all_of(bits_.begin(), bits_.end(),
                     [](Ref b) { return BddManager::is_const(b); });
}

std::uint64_t BitVec::constant_value() const {
  std::uint64_t v = 0;
  for (int i = 0; i < width(); ++i)
    if (bits_[static_cast<std::size_t>(i)] == kTrue) v |= (1ull << i);
  return v;
}

}  // namespace record::bdd
