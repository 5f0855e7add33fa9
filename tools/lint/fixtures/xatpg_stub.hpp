// Minimal self-contained stand-ins for the xatpg types the lint fixtures
// exercise.  The fixtures stay ordinary C++ that any compiler or AST-based
// tool can parse, but they must not drag the whole library into the lint
// suite — so this stub mirrors just the shapes the checks reason about:
// Bdd handles bound to a BddManager, packed edge words, and the Expected<T>
// error carrier.
#pragma once

#include <cstdint>
#include <utility>

namespace xatpg {

class BddManager;

class Bdd {
 public:
  Bdd() = default;
  [[nodiscard]] BddManager* manager() const { return mgr_; }
  [[nodiscard]] std::uint32_t index() const { return idx_; }
  Bdd operator&(const Bdd& rhs) const { return rhs; }
  Bdd operator|(const Bdd& rhs) const { return rhs; }
  Bdd operator^(const Bdd& rhs) const { return rhs; }
  Bdd operator!() const { return *this; }

 private:
  friend class BddManager;
  BddManager* mgr_ = nullptr;
  std::uint32_t idx_ = 0;
};

class BddManager {
 public:
  Bdd var(std::uint32_t) { return Bdd(); }
  Bdd nvar(std::uint32_t) { return Bdd(); }
  Bdd bdd_true() { return Bdd(); }
  Bdd ite(const Bdd&, const Bdd& g, const Bdd&) { return g; }
  Bdd apply_and(const Bdd& f, const Bdd&) { return f; }
  Bdd apply_or(const Bdd& f, const Bdd&) { return f; }
  Bdd exists(const Bdd& f, const Bdd&) { return f; }
};

struct Error {
  int code = 0;
};

template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)), ok_(true) {}
  Expected(Error error) : error_(error) {}
  [[nodiscard]] bool has_value() const { return ok_; }
  explicit operator bool() const { return ok_; }
  T& value() { return value_; }
  [[nodiscard]] const Error& error() const { return error_; }

 private:
  T value_{};
  Error error_{};
  bool ok_ = false;
};

template <>
class [[nodiscard]] Expected<void> {
 public:
  Expected() = default;
  Expected(Error error) : error_(error), ok_(false) {}
  [[nodiscard]] bool has_value() const { return ok_; }
  explicit operator bool() const { return ok_; }
  void value() const {}
  [[nodiscard]] const Error& error() const { return error_; }

 private:
  Error error_{};
  bool ok_ = true;
};

struct Options {
  [[nodiscard]] Expected<void> validate() const { return {}; }
};

}  // namespace xatpg
