// One-list enums: every value named once, in one X-macro list.
//
// The toolchain writes enum names into its artifacts (Eucalyptus XML, FDIR
// audit trails, flow reports), so an enum's values and their names must never
// drift apart. Each such enum is declared from a list macro whose entries are
// `X(kIdentifier, "name")`, in enumerator order:
//
//   #define HERMES_COLORS(X) X(kRed, "red") X(kGreen, "green")
//   HERMES_ENUM(Color, std::uint8_t, HERMES_COLORS)
//
// HERMES_ENUM expands the list into the `enum class` body (values 0..N-1),
// the constexpr name table `kColorNames`, `enum_names(Color)` (found by
// argument-dependent lookup) and `to_string(Color)`, and rejects empty or
// duplicate names at compile time. enum_count<E> and from_name<E> work for
// every enum declared this way. Comments inside a list must be `/* ... */`:
// a `//` comment on a line ending in `\` swallows the next entry.
#pragma once

#include <cstddef>
#include <iterator>
#include <optional>
#include <span>
#include <string_view>

namespace hermes {
namespace enum_detail {

/// True when every name is non-empty and no two names are equal.
constexpr bool names_are_valid(std::span<const char* const> names) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string_view name = names[i];
    if (name.empty()) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (name == names[j]) return false;
    }
  }
  return true;
}

}  // namespace enum_detail

/// Number of values of a HERMES_ENUM enum.
template <typename E>
inline constexpr std::size_t enum_count = enum_names(E{}).size();

/// The value named `name`, if the list has one.
template <typename E>
constexpr std::optional<E> from_name(std::string_view name) {
  const std::span<const char* const> names = enum_names(E{});
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return static_cast<E>(i);
  }
  return std::nullopt;
}

}  // namespace hermes

/// List callbacks: X(id, "name") becomes `id,` or `"name",`.
#define HERMES_ENUM_ID(id, name) id,
#define HERMES_ENUM_NAME(id, name) name,

/// Declares `enum class Name : Underlying` and its names from LIST, in the
/// enclosing namespace.
#define HERMES_ENUM(Name, Underlying, LIST)                                  \
  enum class Name : Underlying { LIST(HERMES_ENUM_ID) };                     \
  inline constexpr const char* const k##Name##Names[] = {                    \
      LIST(HERMES_ENUM_NAME)};                                               \
  constexpr std::span<const char* const> enum_names(Name) {                  \
    return k##Name##Names;                                                   \
  }                                                                          \
  static_assert(::hermes::enum_detail::names_are_valid(k##Name##Names),      \
                #Name " names must be non-empty and unique");                \
  /* The name of `value`, or "?" for a value outside the list. */           \
  constexpr const char* to_string(Name value) {                              \
    const auto index = static_cast<std::size_t>(value);                      \
    return index < std::size(k##Name##Names) ? k##Name##Names[index] : "?";  \
  }
