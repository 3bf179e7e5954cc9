#include "hw/component.hpp"

#include <bit>

#include "common/check.hpp"

namespace simty::hw {

const char* to_string(Component c) {
  switch (c) {
    case Component::kWifi: return "wifi";
    case Component::kWps: return "wps";
    case Component::kGps: return "gps";
    case Component::kCellular: return "cellular";
    case Component::kAccelerometer: return "accelerometer";
    case Component::kSpeaker: return "speaker";
    case Component::kVibrator: return "vibrator";
    case Component::kScreen: return "screen";
    case Component::kWur: return "wur";
  }
  return "?";
}

bool is_user_perceptible(Component c) {
  return c == Component::kSpeaker || c == Component::kVibrator ||
         c == Component::kScreen;
}

namespace {
constexpr std::uint32_t bit_of(Component c) {
  return 1u << static_cast<std::uint8_t>(c);
}
}  // namespace

ComponentSet::ComponentSet(std::initializer_list<Component> cs) {
  for (const Component c : cs) insert(c);
}

ComponentSet ComponentSet::all() {
  ComponentSet s;
  for (int i = 0; i < kComponentCount; ++i) s.insert(static_cast<Component>(i));
  return s;
}

ComponentSet ComponentSet::from_bits(std::uint32_t bits) {
  SIMTY_CHECK_MSG(bits < (1u << kComponentCount),
                  "ComponentSet::from_bits: bits outside the modelled components");
  ComponentSet s;
  s.bits_ = bits;
  return s;
}

std::size_t ComponentSet::size() const {
  return static_cast<std::size_t>(std::popcount(bits_));
}

bool ComponentSet::contains(Component c) const { return (bits_ & bit_of(c)) != 0; }

void ComponentSet::insert(Component c) {
  SIMTY_CHECK(static_cast<int>(c) < kComponentCount);
  bits_ |= bit_of(c);
}

void ComponentSet::erase(Component c) { bits_ &= ~bit_of(c); }

ComponentSet ComponentSet::operator|(ComponentSet o) const {
  ComponentSet s;
  s.bits_ = bits_ | o.bits_;
  return s;
}

ComponentSet ComponentSet::operator&(ComponentSet o) const {
  ComponentSet s;
  s.bits_ = bits_ & o.bits_;
  return s;
}

ComponentSet ComponentSet::operator-(ComponentSet o) const {
  ComponentSet s;
  s.bits_ = bits_ & ~o.bits_;
  return s;
}

ComponentSet& ComponentSet::operator|=(ComponentSet o) {
  bits_ |= o.bits_;
  return *this;
}

std::string ComponentSet::to_string() const {
  std::string out = "{";
  for_each([&out](Component c) {
    if (out.size() > 1) out += ",";
    out += simty::hw::to_string(c);
  });
  return out + "}";
}

}  // namespace simty::hw
