#pragma once
namespace fx::exp {
int run();
}
