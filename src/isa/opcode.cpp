#include "opcode.hpp"

namespace gs
{

std::string_view
cmpName(CmpOp c)
{
    switch (c) {
      case CmpOp::EQ: return "eq";
      case CmpOp::NE: return "ne";
      case CmpOp::LT: return "lt";
      case CmpOp::LE: return "le";
      case CmpOp::GT: return "gt";
      case CmpOp::GE: return "ge";
    }
    return "?";
}

std::string_view
sregName(SReg s)
{
    switch (s) {
      case SReg::Tid: return "tid";
      case SReg::CtaId: return "ctaid";
      case SReg::NTid: return "ntid";
      case SReg::NCtaId: return "nctaid";
      case SReg::LaneId: return "laneid";
      case SReg::WarpId: return "warpid";
    }
    return "?";
}

} // namespace gs
