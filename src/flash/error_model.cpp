#include "flash/error_model.hpp"

#include <cmath>

namespace parabit::flash {

ErrorModel::ErrorModel(const ErrorModelConfig &cfg) : cfg_(cfg)
{
    // rber(pe) = rber0 * exp(k * pe), with
    //   rber(ref) = rberAtRef and rber(ref)/rber(0) = 10^decades.
    const double ln10 = std::log(10.0);
    growthK_ = cfg_.decadesOverLife * ln10 / cfg_.refPeCycles;
    rber0_ = cfg_.rberAtRef() / std::pow(10.0, cfg_.decadesOverLife);
}

double
ErrorModel::rberPerSense(std::uint32_t pe_cycles) const
{
    if (cfg_.rberAtRef() <= 0.0)
        return 0.0;
    return rber0_ * std::exp(growthK_ * static_cast<double>(pe_cycles));
}

double
ErrorModel::wearMultiplier(std::uint64_t disturb, double age_hours) const
{
    double m = 1.0;
    if (cfg_.readDisturbFactor > 0.0 && disturb > 0)
        m *= 1.0 + cfg_.readDisturbFactor * static_cast<double>(disturb);
    if (cfg_.retentionPerHour > 0.0 && age_hours > 0.0)
        m *= 1.0 + cfg_.retentionPerHour * age_hours;
    return m;
}

ErrorModel::FlipDraw
ErrorModel::flipDraw(std::size_t width, std::uint32_t pe_cycles,
                     double rate_multiplier) const
{
    const double p = rberPerSense(pe_cycles) * rate_multiplier;
    if (p <= 0.0 || width == 0)
        return FlipDraw{};
    const double lambda = p * static_cast<double>(width);
    return FlipDraw{width, lambda, std::exp(-lambda)};
}

int
ErrorModel::drawFlips(const FlipDraw &d, Rng &rng,
                      std::vector<std::uint32_t> &flips)
{
    if (d.width == 0)
        return 0;

    // Draw the flip count from Poisson(lambda) by inversion; lambda is
    // far below 1 for all configurations of interest so this loop is
    // short.
    double acc = d.noFlip;
    double term = d.noFlip;
    const double u = rng.uniform();
    int count = 0;
    while (u > acc && count < 1000) {
        ++count;
        term *= d.lambda / count;
        acc += term;
    }

    for (int i = 0; i < count; ++i)
        flips.push_back(static_cast<std::uint32_t>(rng.below(d.width)));
    return count;
}

} // namespace parabit::flash
