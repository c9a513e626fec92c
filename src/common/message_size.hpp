// Approximate wire size of a message, for the `bytes` metric and E10.
// Each message type specializes `MessageSizeOf` beside its definition, so
// every translation unit sees one size rule; a type without one fails to
// compile.
#pragma once

#include <cstddef>

namespace anon {

template <typename M>
struct MessageSizeOf;  // specializations: static std::size_t size(const M&)

}  // namespace anon
