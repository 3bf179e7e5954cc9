#pragma once
// The one type-to-wire mapping for named field lists.
//
// A stateful component names the fields it saves once, in wire order, in
//
//   template <typename Self, typename F>
//   static void for_each_state_field(Self& self, F&& f) {
//     f("idle_promotions", self.idle_promotions_);  ...
//   }
//
// (Self is the component, const when saving). write_fields walks the list
// with a FieldWriter, read_fields with a FieldReader, and both map a C++
// type to tagged container fields the same way: bool, uint8/32/64, int64,
// double and string as u8 0/1, u8/u32/u64, i64, f64 and str; Duration and
// TimePoint as i64 µs; Power and Energy as f64 mW and mJ; an enum as a u8
// (restore rejects a value its to_string does not name); an optional as a
// bool presence, then the value; a sequence as a u64 count, then the
// elements; an array as its elements; a pair as first, then second; a
// unique_ptr as a bool presence (which must match the run's), then the
// pointee restored in place; any other type as a record: its own list.
//
// A member with save(Writer&) or restore(SectionReader&) is saved or
// restored by it instead: that is where a component keeps its save-time
// preconditions and restore-time invariants around its own walk. A field
// the mapping cannot produce is coded inside the list by_hand(); fixed()
// codes a vector whose size the owner's constructor fixed and same() a
// value the run's config fixes. Names never reach the wire. An error while
// restoring a field is rethrown naming the section and the field path
// ("section 'cellular' field 'rrc.idle_promotions': ..."), the message
// built only on the throw path.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/time.hpp"
#include "common/units.hpp"
#include "snapshot/snapshot.hpp"

namespace simty::snapshot {

/// Rethrows `e`, raised while reading field `name` of `s`, with the
/// section and the field path (`name`, then any inner path) in front.
[[noreturn]] void rethrow_in_field(const SectionReader& s, const char* name,
                                   const std::logic_error& e);

/// A field coded by hand: write(Writer&, const Owner&) and
/// read(SectionReader&, Owner&). Pass generic lambdas that reach the owner
/// only through their parameter, so a const walk never builds the reader.
template <typename Owner, typename W, typename R>
struct ByHand {
  Owner& owner;
  W write;
  R read;
};
template <typename Owner, typename W, typename R>
ByHand<Owner, W, R> by_hand(Owner& owner, W write, R read) {
  return {owner, std::move(write), std::move(read)};
}

/// A vector whose size the owner's constructor fixed: its u64 count, which
/// must match on restore, then its elements (pointees, for pointers).
template <typename V>
struct Fixed {
  V& v;
};
template <typename V>
Fixed<V> fixed(V& v) {
  return {v};
}

/// A value the run's config fixes: restore requires the saved value to
/// equal the run's and leaves it as it is.
template <typename T>
struct Same {
  T& v;
};
template <typename T>
Same<T> same(T& v) {
  return {v};
}

/// Reads a u64 element count, rejecting one the unread payload cannot hold
/// (an element is at least one tagged u8), before anything is sized by it.
inline std::uint64_t read_count(SectionReader& s) {
  const std::uint64_t n = s.u64();
  s.check_count(n, 2);
  return n;
}

namespace detail {

template <typename T>
concept HandCoded = requires(const T& v) {
  v.owner;
  v.write;
  v.read;
};

template <typename T>
concept Sequence = requires(T& v) {
  v.size();
  v.begin();
  v.end();
  v.clear();
  v.emplace_back();
};

template <typename T>
decltype(auto) deref(T& x) {
  if constexpr (requires { *x; }) {
    return *x;
  } else {
    return (x);
  }
}

}  // namespace detail

/// Writes the fields it visits. `Self` is the most-derived writer, so the
/// elements of containers and records reach its overloads too; a derived
/// writer may add overloads and replace record() (the config codec does).
template <typename Self>
class FieldWriterBase {
 public:
  explicit FieldWriterBase(Writer& w) : w_(w) {}

  void operator()(const char*, bool v) const { w_.boolean(v); }
  void operator()(const char*, std::uint8_t v) const { w_.u8(v); }
  void operator()(const char*, std::uint32_t v) const { w_.u32(v); }
  void operator()(const char*, std::uint64_t v) const { w_.u64(v); }
  void operator()(const char*, std::int64_t v) const { w_.i64(v); }
  void operator()(const char*, double v) const { w_.f64(v); }
  void operator()(const char*, const std::string& v) const { w_.str(v); }
  void operator()(const char*, std::string_view v) const { w_.str(v); }
  void operator()(const char*, Duration v) const { w_.i64(v.us()); }
  void operator()(const char*, TimePoint v) const { w_.i64(v.us()); }
  void operator()(const char*, Power v) const { w_.f64(v.mw()); }
  void operator()(const char*, Energy v) const { w_.f64(v.mj()); }
  template <typename T>
  void operator()(const char* name, const std::optional<T>& v) const {
    w_.boolean(v.has_value());
    if (v) self()(name, *v);
  }
  template <typename T>
  void operator()(const char* name, const std::unique_ptr<T>& v) const {
    w_.boolean(v != nullptr);
    if (v) self()(name, *v);
  }
  template <typename A, typename B>
  void operator()(const char* name, const std::pair<A, B>& v) const {
    self()(name, v.first);
    self()(name, v.second);
  }
  template <typename T, std::size_t N>
  void operator()(const char* name, const std::array<T, N>& v) const {
    for (const T& x : v) self()(name, x);
  }
  template <typename V>
  void operator()(const char* name, const Fixed<V>& v) const {
    w_.u64(v.v.size());
    for (const auto& x : v.v) self()(name, detail::deref(x));
  }
  template <typename T>
  void operator()(const char* name, const Same<T>& v) const {
    self()(name, v.v);
  }
  template <typename T>
  void operator()(const char* name, const T& v) const {
    if constexpr (detail::HandCoded<T>) {
      v.write(w_, v.owner);
    } else if constexpr (requires { v.save(w_); }) {
      v.save(w_);
    } else if constexpr (std::is_enum_v<T>) {
      w_.u8(static_cast<std::uint8_t>(v));
    } else if constexpr (detail::Sequence<T>) {
      w_.u64(v.size());
      for (const auto& x : v) self()(name, x);
    } else {
      self().record(v);
    }
  }

  template <typename T>
  void record(const T& v) const {
    T::for_each_state_field(v, self());
  }

 protected:
  const Self& self() const { return static_cast<const Self&>(*this); }
  Writer& w_;
};

/// Reads the fields it visits, mirroring FieldWriterBase.
template <typename Self>
class FieldReaderBase {
 public:
  explicit FieldReaderBase(SectionReader& s) : s_(s) {}

  void operator()(const char*, bool& v) const { v = s_.boolean(); }
  void operator()(const char*, std::uint8_t& v) const { v = s_.u8(); }
  void operator()(const char*, std::uint32_t& v) const { v = s_.u32(); }
  void operator()(const char*, std::uint64_t& v) const { v = s_.u64(); }
  void operator()(const char*, std::int64_t& v) const { v = s_.i64(); }
  void operator()(const char*, double& v) const { v = s_.f64(); }
  void operator()(const char*, std::string& v) const { v = s_.str(); }
  void operator()(const char*, Duration& v) const { v = Duration::micros(s_.i64()); }
  void operator()(const char*, TimePoint& v) const { v = TimePoint::from_us(s_.i64()); }
  void operator()(const char*, Power& v) const { v = Power::milliwatts(s_.f64()); }
  void operator()(const char*, Energy& v) const { v = Energy::millijoules(s_.f64()); }
  template <typename T>
  void operator()(const char* name, std::optional<T>& v) const {
    bool present = false;
    self()(name, present);
    v.reset();
    if (present) self()(name, v.emplace());
  }
  template <typename T>
  void operator()(const char* name, std::unique_ptr<T>& v) const {
    bool present = false;
    self()(name, present);
    if (present != (v != nullptr)) {
      throw std::logic_error("snapshot: presence differs from the run's");
    }
    if (v) self()(name, *v);
  }
  template <typename A, typename B>
  void operator()(const char* name, std::pair<A, B>& v) const {
    self()(name, v.first);
    self()(name, v.second);
  }
  template <typename T, std::size_t N>
  void operator()(const char* name, std::array<T, N>& v) const {
    for (T& x : v) self()(name, x);
  }
  template <typename V>
  void operator()(const char* name, Fixed<V>& v) const {
    if (s_.u64() != v.v.size()) {
      throw std::logic_error("snapshot: count differs from the run's");
    }
    for (auto& x : v.v) self()(name, detail::deref(x));
  }
  template <typename T>
  void operator()(const char* name, Same<T>& v) const {
    std::remove_const_t<T> saved{};
    self()(name, saved);
    if (!(saved == v.v)) throw std::logic_error("snapshot: value differs from the run's");
  }
  template <typename T>
  void operator()(const char* name, T& v) const {
    if constexpr (detail::HandCoded<T>) {
      v.read(s_, v.owner);
    } else if constexpr (requires { v.restore(s_); }) {
      v.restore(s_);
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(s_.u8());
      // Each enum's to_string names every enumerator and gives "?" otherwise.
      if (std::string_view(to_string(v)) == "?") {
        throw std::logic_error("snapshot: unknown enumerator");
      }
    } else if constexpr (detail::Sequence<T>) {
      // Elements are appended as they decode, never reserved from the count.
      const std::uint64_t n = read_count(s_);
      v.clear();
      for (std::uint64_t i = 0; i < n; ++i) self()(name, v.emplace_back());
    } else {
      self().record(v);
    }
  }

  /// Reads each field of `v`'s list, naming the field in any error.
  template <typename T>
  void record(T& v) const {
    T::for_each_state_field(v, [this](const char* name, auto&& member) {
      try {
        self()(name, member);
      } catch (const std::logic_error& e) {
        rethrow_in_field(s_, name, e);
      }
    });
  }

 protected:
  const Self& self() const { return static_cast<const Self&>(*this); }
  SectionReader& s_;
};

struct FieldWriter final : FieldWriterBase<FieldWriter> {
  using FieldWriterBase::FieldWriterBase;
};

struct FieldReader final : FieldReaderBase<FieldReader> {
  using FieldReaderBase::FieldReaderBase;
};

/// Writes `v`'s state fields into the open section.
template <typename T>
void write_fields(Writer& w, const T& v) {
  FieldWriter(w).record(v);
}

/// Reads `v`'s state fields, in list order, from `s`.
template <typename T>
void read_fields(SectionReader& s, T& v) {
  FieldReader(s).record(v);
}

}  // namespace simty::snapshot
