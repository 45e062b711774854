#include "isa/reg.hh"

namespace constable {

std::string
regName(uint8_t r)
{
    static const char* names16[] = {
        "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    };
    if (r < 16)
        return names16[r];
    if (r < kMaxArchRegs)
        return std::string("r").append(std::to_string(static_cast<int>(r)));
    if (r == kNoReg)
        return "<none>";
    return "<bad:" + std::to_string(static_cast<int>(r)) + ">";
}

} // namespace constable
