/**
 * @file
 * Host-side encoding of formulas into NVMe commands and the device-side
 * CMD Parse module recovering the batch list (paper Fig 9 left, Figs
 * 10-11).
 */

#ifndef PARABIT_NVME_PARSER_HPP_
#define PARABIT_NVME_PARSER_HPP_

#include <vector>

#include "common/units.hpp"
#include "nvme/batch.hpp"
#include "nvme/command.hpp"

namespace parabit::nvme {

/** Stateless encode/parse helpers; see file comment. */
class CmdParser
{
  public:
    /** @param page_bytes flash page size (sets sectors per page). */
    explicit CmdParser(Bytes page_bytes);

    std::uint64_t sectorsPerPage() const { return sectorsPerPage_; }

    /**
     * Host side: encode @p formula as a stream of NVMe read commands
     * carrying the ParaBit semantics of Fig 10.  Batch-result operands
     * produce no commands of their own (the device synthesises the new
     * batch as in Fig 12).
     */
    std::vector<NvmeCommand> encode(const Formula &formula) const;

    /**
     * Device side (CMD Parse module): reconstruct the batch list from a
     * command stream, splitting page-spanning operands into
     * sub-operations and binding partners via the DWord 2/3 links.
     */
    std::vector<Batch> parse(const std::vector<NvmeCommand> &cmds) const;

    /**
     * Direct construction of the batch list from a formula, bypassing
     * the wire format (used by the controller's in-process API).  It
     * returns what parse(encode(@p formula)) returns, Fig 12's chain
     * batches included, for a formula whose fold terms each consume the
     * batch before them (as Formula::chain builds them).
     */
    std::vector<Batch> buildBatches(const Formula &formula) const;

  private:
    std::uint64_t sectorsPerPage_;
};

} // namespace parabit::nvme

#endif // PARABIT_NVME_PARSER_HPP_
