#include "frontend/ast.hpp"

#include "common/strings.hpp"

namespace hermes::fe {

std::string Type::to_string() const {
  switch (kind) {
    case Kind::kVoid: return "void";
    case Kind::kBool: return "bool";
    case Kind::kInt:
      return format("%sint%u_t", is_signed ? "" : "u", bits);
  }
  return "?";
}

bool parse_type_name(std::string_view name, Type& out) {
  if (name == "void") { out = Type::Void(); return true; }
  if (name == "bool") { out = Type::Bool(); return true; }
  if (name == "int") { out = Type::Int(32, true); return true; }
  if (name == "unsigned") { out = Type::Int(32, false); return true; }
  if (name == "char") { out = Type::Int(8, true); return true; }
  if (name == "short") { out = Type::Int(16, true); return true; }
  if (name == "long") { out = Type::Int(64, true); return true; }
  if (name == "size_t") { out = Type::Int(64, false); return true; }
  if (name == "int8_t") { out = Type::Int(8, true); return true; }
  if (name == "int16_t") { out = Type::Int(16, true); return true; }
  if (name == "int32_t") { out = Type::Int(32, true); return true; }
  if (name == "int64_t") { out = Type::Int(64, true); return true; }
  if (name == "uint8_t") { out = Type::Int(8, false); return true; }
  if (name == "uint16_t") { out = Type::Int(16, false); return true; }
  if (name == "uint32_t") { out = Type::Int(32, false); return true; }
  if (name == "uint64_t") { out = Type::Int(64, false); return true; }
  return false;
}

}  // namespace hermes::fe
