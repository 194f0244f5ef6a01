#include "simgpu/Trace.hpp"

#include "util/Logging.hpp"

namespace gsuite {

TraceBuilder::TraceBuilder(WarpTrace &trace, size_t instr_budget,
                           uint8_t &reg_cursor)
    : trace(trace), budget(instr_budget), cursor(reg_cursor)
{
}

Reg
TraceBuilder::allocReg()
{
    const Reg r = cursor;
    cursor = static_cast<uint8_t>((cursor + 1) % kNumWarpRegs);
    return r;
}

uint32_t
TraceBuilder::pushAddrs(std::span<const uint64_t> lane_addrs,
                        uint16_t &count)
{
    panicIf(lane_addrs.size() > 32, "more than 32 lane addresses");
    const uint32_t off = static_cast<uint32_t>(trace.addrs.size());
    trace.addrs.insert(trace.addrs.end(), lane_addrs.begin(),
                       lane_addrs.end());
    count = static_cast<uint16_t>(lane_addrs.size());
    return off;
}

Reg
TraceBuilder::alu(Op op, Reg a, Reg b, uint32_t mask)
{
    SimInstr in;
    in.op = op;
    in.dst = allocReg();
    in.srcA = a;
    in.srcB = b;
    in.activeMask = mask;
    trace.instrs.push_back(in);
    return in.dst;
}

void
TraceBuilder::aluChain(Op op, int n, uint32_t mask)
{
    Reg prev = kNoReg;
    for (int i = 0; i < n; ++i)
        prev = alu(op, prev, kNoReg, mask);
}

Reg
TraceBuilder::load(std::span<const uint64_t> lane_addrs, Reg addr_src)
{
    SimInstr in;
    in.op = Op::LDG;
    in.dst = allocReg();
    in.srcA = addr_src;
    in.activeMask = maskOfLanes(static_cast<int>(lane_addrs.size()));
    in.addrOffset = pushAddrs(lane_addrs, in.addrCount);
    trace.instrs.push_back(in);
    return in.dst;
}

void
TraceBuilder::store(std::span<const uint64_t> lane_addrs, Reg value)
{
    SimInstr in;
    in.op = Op::STG;
    in.srcA = value;
    in.activeMask = maskOfLanes(static_cast<int>(lane_addrs.size()));
    in.addrOffset = pushAddrs(lane_addrs, in.addrCount);
    trace.instrs.push_back(in);
}

void
TraceBuilder::atomic(std::span<const uint64_t> lane_addrs, Reg value)
{
    SimInstr in;
    in.op = Op::ATOM;
    in.srcA = value;
    in.activeMask = maskOfLanes(static_cast<int>(lane_addrs.size()));
    in.addrOffset = pushAddrs(lane_addrs, in.addrCount);
    trace.instrs.push_back(in);
}

Reg
TraceBuilder::sharedLoad(uint32_t mask)
{
    SimInstr in;
    in.op = Op::LDS;
    in.dst = allocReg();
    in.activeMask = mask;
    trace.instrs.push_back(in);
    return in.dst;
}

void
TraceBuilder::sharedStore(Reg value, uint32_t mask)
{
    SimInstr in;
    in.op = Op::STS;
    in.srcA = value;
    in.activeMask = mask;
    trace.instrs.push_back(in);
}

void
TraceBuilder::control(uint32_t mask)
{
    SimInstr in;
    in.op = Op::CTRL;
    in.activeMask = mask;
    trace.instrs.push_back(in);
}

void
TraceBuilder::barrier()
{
    SimInstr in;
    in.op = Op::BAR;
    trace.instrs.push_back(in);
}

void
TraceBuilder::exit()
{
    SimInstr in;
    in.op = Op::EXIT;
    trace.instrs.push_back(in);
}

uint32_t
maskOfLanes(int n)
{
    panicIf(n < 0 || n > 32, "lane count out of range");
    if (n == 32)
        return 0xffffffffu;
    if (n == 0)
        return 0;
    return (1u << n) - 1;
}

} // namespace gsuite
