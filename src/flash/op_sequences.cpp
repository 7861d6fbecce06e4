#include "flash/op_sequences.hpp"

#include <array>
#include <sstream>

#include "common/logging.hpp"

namespace parabit::flash {

const char *
opName(BitwiseOp op)
{
    switch (op) {
      case BitwiseOp::kAnd: return "AND";
      case BitwiseOp::kOr: return "OR";
      case BitwiseOp::kXnor: return "XNOR";
      case BitwiseOp::kNand: return "NAND";
      case BitwiseOp::kNor: return "NOR";
      case BitwiseOp::kXor: return "XOR";
      case BitwiseOp::kNotLsb: return "NOT-LSB";
      case BitwiseOp::kNotMsb: return "NOT-MSB";
    }
    return "?";
}

MicroStep
MicroStep::initNormal()
{
    return {Kind::kInitNormal, VRead::kVRead0, WordlineSel::kNone, false,
            LatchPulse::kM1};
}

MicroStep
MicroStep::initInverted()
{
    return {Kind::kInitInverted, VRead::kVRead0, WordlineSel::kNone, false,
            LatchPulse::kM2};
}

MicroStep
MicroStep::sense(VRead v, LatchPulse pulse, WordlineSel wl, bool so_inverted)
{
    return {Kind::kSense, v, wl, so_inverted, pulse};
}

MicroStep
MicroStep::transfer()
{
    return {Kind::kTransfer, VRead::kVRead0, WordlineSel::kNone, false,
            LatchPulse::kM3};
}

int
MicroProgram::senseCount() const
{
    int n = 0;
    for (const auto &s : steps)
        if (s.kind == MicroStep::Kind::kSense)
            ++n;
    return n;
}

int
MicroProgram::transferCount() const
{
    int n = 0;
    for (const auto &s : steps)
        if (s.kind == MicroStep::Kind::kTransfer)
            ++n;
    return n;
}

bool
MicroProgram::needsInverterExtension() const
{
    for (const auto &s : steps)
        if (s.soInverted)
            return true;
    return false;
}

namespace {

const char *
vreadName(VRead v)
{
    switch (v) {
      case VRead::kVRead0: return "VREAD0";
      case VRead::kVRead1: return "VREAD1";
      case VRead::kVRead2: return "VREAD2";
      case VRead::kVRead3: return "VREAD3";
    }
    return "?";
}

const char *
pulseName(LatchPulse p)
{
    switch (p) {
      case LatchPulse::kM1: return "M1";
      case LatchPulse::kM2: return "M2";
      case LatchPulse::kM3: return "M3";
    }
    return "?";
}

const char *
wlName(WordlineSel wl)
{
    switch (wl) {
      case WordlineSel::kSelf: return "self";
      case WordlineSel::kOperandM: return "WL(M)";
      case WordlineSel::kOperandN: return "WL(N)";
      case WordlineSel::kNone: return "-";
    }
    return "?";
}

using Step = MicroStep;
using P = LatchPulse;
using W = WordlineSel;
using V = VRead;

MicroProgram
makeCoLocated(BitwiseOp op)
{
    MicroProgram prog;
    prog.op = op;
    prog.locationFree = false;
    auto &s = prog.steps;
    switch (op) {
      case BitwiseOp::kAnd:
        // Fig 5(a): one sense at VREAD1 isolates state E.
        s = {Step::initNormal(),
             Step::sense(V::kVRead1, P::kM2),
             Step::transfer()};
        break;
      case BitwiseOp::kOr:
        // Fig 5(b): same shape as an MSB read but at VREAD2/VREAD3.
        s = {Step::initNormal(),
             Step::sense(V::kVRead2, P::kM2),
             Step::sense(V::kVRead3, P::kM1),
             Step::transfer()};
        break;
      case BitwiseOp::kXnor:
        // Fig 6: isolate E into L2, reset L1 via VREAD0, isolate S2,
        // then merge through the second transfer.
        s = {Step::initNormal(),
             Step::sense(V::kVRead1, P::kM2),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM2),
             Step::sense(V::kVRead2, P::kM1),
             Step::sense(V::kVRead3, P::kM2),
             Step::transfer()};
        break;
      case BitwiseOp::kNand:
        // Table 2.
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1),
             Step::transfer()};
        break;
      case BitwiseOp::kNor:
        // Table 3.
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1),
             Step::sense(V::kVRead3, P::kM2),
             Step::transfer()};
        break;
      case BitwiseOp::kXor:
        // Table 4: OUT accumulates ~M.N, L1 is re-initialised by the
        // always-above VREAD0 sense, then M.~N is merged in.
        s = {Step::initInverted(),
             Step::sense(V::kVRead3, P::kM1),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM2),
             Step::sense(V::kVRead1, P::kM1),
             Step::sense(V::kVRead2, P::kM2),
             Step::transfer()};
        break;
      case BitwiseOp::kNotLsb:
        // Table 5 (top).
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1),
             Step::transfer()};
        break;
      case BitwiseOp::kNotMsb:
        // Table 5 (bottom).
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1),
             Step::sense(V::kVRead3, P::kM2),
             Step::transfer()};
        break;
    }
    return prog;
}

MicroProgram
makeLocationFree(BitwiseOp op)
{
    MicroProgram prog;
    prog.op = op;
    prog.locationFree = true;
    auto &s = prog.steps;

    // Building blocks (paper Fig 3 read sequences retargeted per WL):
    //   MSB read of WL(M) with normal L1:    V1/M2 then V3/M1 -> A = M
    //   NOT-MSB read of WL(M), inverted L1:  V1/M1 then V3/M2 -> A = ~M
    //   LSB sense of WL(N): SO is naturally ~N at VREAD2; the M7
    //   inverter yields SO = N when the original value is needed.
    //   L1 re-init to normal: VREAD0 sense + M1 (SO always high grounds
    //   C) -> A = 1111.
    switch (op) {
      case BitwiseOp::kAnd:
        // Table 6: A = M, then A &= ~SO = M & N, transfer.
        s = {Step::initNormal(),
             Step::sense(V::kVRead1, P::kM2, W::kOperandM),
             Step::sense(V::kVRead3, P::kM1, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kOr:
        // Table 7: stage M into L2, re-init L1, read N, merge via M3.
        s = {Step::initNormal(),
             Step::sense(V::kVRead1, P::kM2, W::kOperandM),
             Step::sense(V::kVRead3, P::kM1, W::kOperandM),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kXor:
        // Fig 8: phase 1 computes ~M.N into OUT, phase 2 ORs M.~N in
        // (the final LSB sense uses the M7 inverter to get SO = N).
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1, W::kOperandM),
             Step::sense(V::kVRead3, P::kM2, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead1, P::kM2, W::kOperandM),
             Step::sense(V::kVRead3, P::kM1, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer()};
        break;
      case BitwiseOp::kNand:
        // ~M | ~N via the OR shape on inverted operands.
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1, W::kOperandM),
             Step::sense(V::kVRead3, P::kM2, W::kOperandM),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer()};
        break;
      case BitwiseOp::kNor:
        // ~M & ~N via the AND shape on inverted operands.
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1, W::kOperandM),
             Step::sense(V::kVRead3, P::kM2, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer()};
        break;
      case BitwiseOp::kXnor:
        // ~M.~N + M.N, mirroring the XOR two-phase structure.
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1, W::kOperandM),
             Step::sense(V::kVRead3, P::kM2, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead1, P::kM2, W::kOperandM),
             Step::sense(V::kVRead3, P::kM1, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kNotLsb:
        // Inverted init + LSB sense via M1: C collects N, A = ~N.
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kNotMsb:
        // NOT-MSB read (Table 5 bottom) against WL(M).
        s = {Step::initInverted(),
             Step::sense(V::kVRead1, P::kM1, W::kOperandM),
             Step::sense(V::kVRead3, P::kM2, W::kOperandM),
             Step::transfer()};
        break;
    }
    return prog;
}

MicroProgram
makeLocationFreeLsbLsb(BitwiseOp op)
{
    MicroProgram prog;
    prog.op = op;
    prog.locationFree = true;
    auto &s = prog.steps;

    // Both operands live in LSB pages, so each is reachable with a
    // single VREAD2 SRO: SO is naturally the inverted bit, and the M7
    // inverter recovers the original where needed.
    switch (op) {
      case BitwiseOp::kAnd:
        // A <- M (via ~SO at VREAD2), then A &= N, transfer.
        s = {Step::initNormal(),
             Step::sense(V::kVRead2, P::kM2, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kOr:
        // Stage M in L2, re-init, read N, merge via the second transfer.
        s = {Step::initNormal(),
             Step::sense(V::kVRead2, P::kM2, W::kOperandM),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kXor:
        // Phase 1: ~M.N into OUT; phase 2: M.~N (M7 recovers N).
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead2, P::kM2, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer()};
        break;
      case BitwiseOp::kNand:
        // ~M into OUT, then OR in ~N.
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandM),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer()};
        break;
      case BitwiseOp::kNor:
        // A <- ~M, then A &= ~N (M7), transfer.
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer()};
        break;
      case BitwiseOp::kXnor:
        // ~M.~N + M.N, mirroring the XOR two-phase structure.
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN, true),
             Step::transfer(),
             Step::sense(V::kVRead0, P::kM1, W::kNone),
             Step::sense(V::kVRead2, P::kM2, W::kOperandM),
             Step::sense(V::kVRead2, P::kM2, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kNotLsb:
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandN),
             Step::transfer()};
        break;
      case BitwiseOp::kNotMsb:
        // "M" operand here also lives in an LSB page; same shape.
        s = {Step::initInverted(),
             Step::sense(V::kVRead2, P::kM1, W::kOperandM),
             Step::transfer()};
        break;
    }
    return prog;
}

/** One flavour's shipped programs and each one's senseCount(). */
struct ProgramTable
{
    std::array<MicroProgram, kNumBitwiseOps> programs;
    std::array<int, kNumBitwiseOps> senses{};
};

template <MicroProgram (*Maker)(BitwiseOp)>
const ProgramTable &
programTable()
{
    static const ProgramTable table = [] {
        ProgramTable t;
        for (int i = 0; i < kNumBitwiseOps; ++i) {
            const auto at = static_cast<std::size_t>(i);
            t.programs[at] = Maker(static_cast<BitwiseOp>(i));
            t.senses[at] = t.programs[at].senseCount();
        }
        return t;
    }();
    return table;
}

const ProgramTable &
locationFreeTable(LocFreeVariant variant)
{
    return variant == LocFreeVariant::kLsbLsb
               ? programTable<makeLocationFreeLsbLsb>()
               : programTable<makeLocationFree>();
}

} // namespace

std::string
MicroProgram::describe() const
{
    std::ostringstream os;
    os << opName(op) << (locationFree ? " (location-free)" : " (co-located)")
       << ": " << senseCount() << " SROs, " << transferCount()
       << " transfers\n";
    int row = 1;
    for (const auto &st : steps) {
        os << "  " << row++ << ". ";
        switch (st.kind) {
          case MicroStep::Kind::kInitNormal:
            os << "init (normal, Fig 2)";
            break;
          case MicroStep::Kind::kInitInverted:
            os << "init (inverted, Fig 7)";
            break;
          case MicroStep::Kind::kSense:
            os << "sense " << vreadName(st.vread) << " @ " << wlName(st.wl)
               << (st.soInverted ? " [M7 inverted SO]" : "") << ", pulse "
               << pulseName(st.pulse);
            break;
          case MicroStep::Kind::kTransfer:
            os << "transfer L1->L2 (M3)";
            break;
        }
        os << "\n";
    }
    return os.str();
}

const MicroProgram &
coLocatedProgram(BitwiseOp op)
{
    return programTable<makeCoLocated>().programs[static_cast<std::size_t>(op)];
}

int
coLocatedSenseCount(BitwiseOp op)
{
    return programTable<makeCoLocated>().senses[static_cast<std::size_t>(op)];
}

const MicroProgram &
locationFreeProgram(BitwiseOp op, LocFreeVariant variant)
{
    return locationFreeTable(variant).programs[static_cast<std::size_t>(op)];
}

int
locationFreeSenseCount(BitwiseOp op, LocFreeVariant variant)
{
    return locationFreeTable(variant).senses[static_cast<std::size_t>(op)];
}

} // namespace parabit::flash
