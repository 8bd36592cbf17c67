// Field lists: each counter struct names its members once, and merges,
// checkpoints and the snapshot format loop over that list instead of
// repeating the members by hand.
//
// A struct opts in with `static constexpr std::tuple kFields{...}` holding
// one Field per member, in serialization order.  A member whose type has
// its own kFields (a nested counter struct) is visited through that list;
// any other member is a leaf handed to the callback as is.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <tuple>
#include <type_traits>

namespace rrs {

/// How merging two runs combines one integer field.
enum class Merge : bool { kSum, kMax };

/// One entry of a struct's field list; `Field{"name", &S::member}`
/// deduces S and the member type M.
template <typename S, typename M>
struct Field {
  std::string_view name;
  M S::*member;
  Merge merge = Merge::kSum;
};

template <typename T>
concept FieldListed = requires { T::kFields; };

/// Calls fn(field, s.*member, rest.*member...) for every leaf field of S in
/// list order, descending into nested field-listed members.  `rest` are
/// further objects of the same type visited in lockstep (a merge source,
/// say).
template <typename Fn, typename S, typename... Rest>
constexpr void for_each_field(Fn&& fn, S& s, Rest&... rest) {
  const auto visit = [&](const auto& field) {
    using M = std::remove_cvref_t<decltype(s.*field.member)>;
    if constexpr (FieldListed<M>) {
      for_each_field(fn, s.*field.member, rest.*field.member...);
    } else {
      fn(field, s.*field.member, rest.*field.member...);
    }
  };
  std::apply([&](const auto&... field) { (visit(field), ...); },
             std::remove_const_t<S>::kFields);
}

/// Merges `from` into `into` field by field: integers sum, or take the
/// max where the list says so; leaves with a merge() of their own (the
/// histograms) use it.  Any other leaf is derived data the caller
/// recomputes.
template <FieldListed S>
constexpr void merge_fields(S& into, const S& from) {
  for_each_field(
      [](const auto& field, auto& a, const auto& b) {
        using T = std::remove_cvref_t<decltype(a)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          a = field.merge == Merge::kMax ? std::max(a, b) : a + b;
        } else if constexpr (requires { a.merge(b); }) {
          a.merge(b);
        }
      },
      into, from);
}

/// True when S holds nothing but its listed int64 counters.  A pure
/// counter struct static_asserts this, so a member added without a list
/// entry fails to compile.
template <FieldListed S>
constexpr bool only_listed_counters() {
  std::size_t n = 0;
  S s{};
  for_each_field([&n](const auto&, std::int64_t&) { ++n; }, s);
  return sizeof(S) == n * sizeof(std::int64_t);
}

}  // namespace rrs
