#include "nvme/parser.hpp"

#include "common/logging.hpp"

namespace parabit::nvme {

Formula
Formula::chain(flash::BitwiseOp op, const std::vector<Lpn> &operands,
               std::uint32_t pages)
{
    if (operands.size() < 2)
        fatal("Formula::chain: need at least two operands");
    Formula f;
    // First term combines the first two operands...
    f.terms.push_back(Term{OperandRef::logical(operands[0], pages),
                           OperandRef::logical(operands[1], pages), op});
    // ...then each further operand folds into the running result.  Fold
    // terms carry their own op, so no chainOps entries are needed.
    for (std::size_t i = 2; i < operands.size(); ++i) {
        f.terms.push_back(
            Term{OperandRef::resultOf(static_cast<std::uint32_t>(i - 2),
                                      pages),
                 OperandRef::logical(operands[i], pages), op});
    }
    return f;
}

namespace {

/**
 * Append the chain batches of paper Fig 12 to @p batches: the extra op
 * of each pair batch (both operands logical) but the last combines the
 * running result with the next pair batch's result.  @p pair_ids lists
 * the pair batches in order.  The one construction behind both parse()
 * and buildBatches().
 */
void
appendChainBatches(std::vector<Batch> &batches,
                   const std::vector<std::uint32_t> &pair_ids)
{
    std::uint32_t prev = pair_ids.empty() ? 0 : pair_ids[0];
    for (std::size_t k = 0; k + 1 < pair_ids.size(); ++k) {
        const std::optional<flash::BitwiseOp> chain =
            batches[pair_ids[k]].extraOp;
        if (!chain)
            continue;
        Batch nb;
        nb.id = static_cast<std::uint32_t>(batches.size());
        nb.intraOp = *chain;
        nb.order = static_cast<std::uint8_t>(nb.id);
        nb.firstOperand =
            OperandRef::resultOf(prev, batches[prev].firstOperand.pages);
        const std::uint32_t next = pair_ids[k + 1];
        nb.secondOperand =
            OperandRef::resultOf(next, batches[next].firstOperand.pages);
        prev = nb.id;
        batches.push_back(nb);
    }
}

} // namespace

CmdParser::CmdParser(Bytes page_bytes)
    : sectorsPerPage_(page_bytes / kSectorBytes)
{
    if (sectorsPerPage_ == 0)
        sectorsPerPage_ = 1; // sub-sector pages (tiny test geometries)
}

std::vector<NvmeCommand>
CmdParser::encode(const Formula &formula) const
{
    std::vector<NvmeCommand> cmds;
    std::uint8_t order = 0;
    for (std::size_t t = 0; t < formula.terms.size(); ++t) {
        const Formula::Term &term = formula.terms[t];
        if (term.second.kind != OperandRef::Kind::kLogicalPages)
            fatal("CmdParser::encode: second operand must be logical");

        if (term.first.kind == OperandRef::Kind::kBatchResult) {
            // Fold term: the first operand is the running result, held
            // device-side (Fig 12's "p-t" batches), so only the new
            // operand needs wire commands — a chain of second-operand
            // (tag = 1) commands carrying the op type.
            for (std::uint32_t p = 0; p < term.second.pages; ++p) {
                NvmeCommand c1;
                c1.setOpcode(Opcode::kRead);
                c1.setSlba((term.second.lpn + p) * sectorsPerPage_);
                c1.setNlb(static_cast<std::uint16_t>(sectorsPerPage_ - 1));
                c1.setOperandTag(true);
                c1.setIntraOp(term.op);
                c1.setBatchOrder(order);
                if (p + 1 < term.second.pages) {
                    c1.setPartnerLba((term.second.lpn + p + 1) *
                                     sectorsPerPage_);
                }
                cmds.push_back(c1);
            }
            ++order;
            continue;
        }
        if (term.first.pages != term.second.pages)
            fatal("CmdParser::encode: operand page counts differ");

        const bool has_extra = t < formula.chainOps.size();
        const flash::BitwiseOp extra =
            has_extra ? formula.chainOps[t] : flash::BitwiseOp::kAnd;

        for (std::uint32_t p = 0; p < term.first.pages; ++p) {
            NvmeCommand c0;
            c0.setOpcode(Opcode::kRead);
            c0.setSlba((term.first.lpn + p) * sectorsPerPage_);
            c0.setNlb(static_cast<std::uint16_t>(sectorsPerPage_ - 1));
            c0.setOperandTag(false);
            c0.setIntraOp(term.op);
            c0.setBatchOrder(order);
            c0.setPartnerLba((term.second.lpn + p) * sectorsPerPage_);

            NvmeCommand c1;
            c1.setOpcode(Opcode::kRead);
            c1.setSlba((term.second.lpn + p) * sectorsPerPage_);
            c1.setNlb(static_cast<std::uint16_t>(sectorsPerPage_ - 1));
            c1.setOperandTag(true);
            c1.setBatchOrder(order);
            if (has_extra)
                c1.setExtraOp(extra);
            if (p + 1 < term.first.pages) {
                // Bind to the next sub-operation's first command.
                c1.setPartnerLba((term.first.lpn + p + 1) * sectorsPerPage_);
            }

            cmds.push_back(c0);
            cmds.push_back(c1);
        }
        ++order;
    }
    return cmds;
}

std::vector<Batch>
CmdParser::parse(const std::vector<NvmeCommand> &cmds) const
{
    std::vector<Batch> batches;
    std::vector<std::uint32_t> pair_ids;

    std::size_t i = 0;
    while (i < cmds.size()) {
        Batch b;
        b.id = static_cast<std::uint32_t>(batches.size());

        if (cmds[i].operandTag()) {
            // Fold group: a chain of tag-1 commands whose first operand
            // is the previous batch's result (device-held, Fig 12).
            if (batches.empty())
                fatal("CmdParser::parse: fold group with no prior batch");
            b.intraOp = cmds[i].intraOp();
            b.order = cmds[i].batchOrder();
            b.firstOperand = OperandRef::resultOf(b.id - 1, 0);
            b.secondOperand =
                OperandRef::logical(cmds[i].slba() / sectorsPerPage_, 0);
            while (i < cmds.size()) {
                const NvmeCommand &c1 = cmds[i];
                if (!c1.operandTag())
                    fatal("CmdParser::parse: tag-0 inside a fold group");
                SubOperation sub;
                sub.second =
                    DeviceCmd{c1.slba() / sectorsPerPage_, true,
                              c1.pageOffsetSectors(), c1.sizeSectors()};
                b.subOps.push_back(sub);
                ++b.firstOperand.pages;
                ++b.secondOperand.pages;
                const bool more = c1.hasPartner();
                ++i;
                if (!more)
                    break;
            }
            batches.push_back(std::move(b));
            continue;
        }

        if (i + 1 >= cmds.size())
            fatal("CmdParser::parse: dangling operand command");
        bool first_sub = true;
        while (i + 1 < cmds.size()) {
            const NvmeCommand &c0 = cmds[i];
            const NvmeCommand &c1 = cmds[i + 1];
            if (c0.operandTag() || !c1.operandTag())
                fatal("CmdParser::parse: operand tags out of order");
            if (!c0.hasPartner() ||
                c0.partnerLba() != c1.slba())
                fatal("CmdParser::parse: broken partner binding");

            if (first_sub) {
                b.intraOp = c0.intraOp();
                b.order = c0.batchOrder();
                b.extraOp = c1.extraOp();
                b.firstOperand =
                    OperandRef::logical(c0.slba() / sectorsPerPage_, 0);
                b.secondOperand =
                    OperandRef::logical(c1.slba() / sectorsPerPage_, 0);
                first_sub = false;
            }

            SubOperation sub;
            sub.first = DeviceCmd{c0.slba() / sectorsPerPage_, false,
                                  c0.pageOffsetSectors(), c0.sizeSectors()};
            sub.second = DeviceCmd{c1.slba() / sectorsPerPage_, true,
                                   c1.pageOffsetSectors(), c1.sizeSectors()};
            b.subOps.push_back(sub);
            ++b.firstOperand.pages;
            ++b.secondOperand.pages;

            const bool more_subs = c1.hasPartner();
            i += 2;
            if (!more_subs)
                break;
        }
        pair_ids.push_back(b.id);
        batches.push_back(std::move(b));
    }
    appendChainBatches(batches, pair_ids);
    return batches;
}

std::vector<Batch>
CmdParser::buildBatches(const Formula &formula) const
{
    std::vector<Batch> batches;
    std::vector<std::uint32_t> pair_ids;
    for (std::size_t t = 0; t < formula.terms.size(); ++t) {
        const Formula::Term &term = formula.terms[t];
        const bool pair = term.first.kind == OperandRef::Kind::kLogicalPages;
        Batch b;
        b.id = static_cast<std::uint32_t>(batches.size());
        b.intraOp = term.op;
        b.order = static_cast<std::uint8_t>(b.id);
        // Like encode(): only a pair term carries its chain op.
        if (pair && t < formula.chainOps.size())
            b.extraOp = formula.chainOps[t];
        b.firstOperand = term.first;
        b.secondOperand = term.second;
        const std::uint32_t pages =
            std::max(term.first.pages, term.second.pages);
        b.subOps.reserve(pages);
        for (std::uint32_t p = 0; p < pages; ++p) {
            SubOperation sub;
            if (pair)
                sub.first = DeviceCmd{term.first.lpn + p, false, 0, 0};
            sub.second = DeviceCmd{term.second.lpn + p, true, 0, 0};
            b.subOps.push_back(sub);
        }
        if (pair)
            pair_ids.push_back(b.id);
        batches.push_back(std::move(b));
    }
    appendChainBatches(batches, pair_ids);
    return batches;
}

} // namespace parabit::nvme
