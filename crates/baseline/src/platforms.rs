//! The Table 1 comparison platforms.
//!
//! §10 compares mmX against MiRa, OpenMili/Pasternack, WiFi (802.11n) and
//! Bluetooth on cost, power, transmission power, bandwidth, PHY bitrate,
//! energy efficiency and range. Each platform is a data model whose
//! derived column (nJ/bit) is *computed*, not transcribed — so the table
//! regenerates from first principles.

use mmx_units::{BitRate, DbmPower, Hertz, Watts};

/// One comparison platform.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Display name.
    pub name: String,
    /// Carrier frequency.
    pub carrier: Hertz,
    /// Unit cost, USD.
    pub cost_usd: f64,
    /// DC power consumption.
    pub power: Watts,
    /// Transmission (RF) power.
    pub tx_power: DbmPower,
    /// Occupied bandwidth.
    pub bandwidth: Hertz,
    /// PHY-layer bitrate (at the quoted range).
    pub phy_rate: BitRate,
    /// Operating range, meters.
    pub range_m: f64,
}

impl Platform {
    /// Energy efficiency in nJ/bit (power over rate) — Table 1's derived
    /// column.
    pub fn energy_per_bit_nj(&self) -> f64 {
        self.phy_rate.energy_per_bit_nj(self.power)
    }

    /// mmX (this work): $110, 1.1 W, 10 dBm, 250 MHz band, 100 Mbps at
    /// 18 m.
    pub fn mmx() -> Self {
        Platform {
            name: "mmX".into(),
            carrier: Hertz::from_ghz(24.0),
            cost_usd: 110.0,
            power: Watts::new(1.1),
            tx_power: DbmPower::new(10.0),
            bandwidth: Hertz::from_mhz(250.0),
            phy_rate: BitRate::from_mbps(100.0),
            range_m: 18.0,
        }
    }

    /// MiRa \[5\]: $7000, 11.6 W, 1 Gbps at 100 m.
    pub fn mira() -> Self {
        Platform {
            name: "MiRa".into(),
            carrier: Hertz::from_ghz(24.0),
            cost_usd: 7_000.0,
            power: Watts::new(11.6),
            tx_power: DbmPower::new(10.0),
            bandwidth: Hertz::from_mhz(250.0),
            phy_rate: BitRate::from_gbps(1.0),
            range_m: 100.0,
        }
    }

    /// OpenMili/Pasternack \[32, 47\]: $8000, 5 W (without the phased
    /// array), 1.3 Gbps at 11 m, 60 GHz.
    pub fn openmili() -> Self {
        Platform {
            name: "OpenMili/Pasternack".into(),
            carrier: Hertz::from_ghz(60.0),
            cost_usd: 8_000.0,
            power: Watts::new(5.0),
            tx_power: DbmPower::new(12.0),
            bandwidth: Hertz::from_ghz(1.0),
            phy_rate: BitRate::from_gbps(1.3),
            range_m: 11.0,
        }
    }

    /// WiFi 802.11n \[15, 22\]: $10, 2.1 W, 120 Mbps at 18 m, 50 m range.
    pub fn wifi_80211n() -> Self {
        Platform {
            name: "WiFi (802.11n)".into(),
            carrier: Hertz::from_ghz(2.4),
            cost_usd: 10.0,
            power: Watts::new(2.1),
            tx_power: DbmPower::new(30.0),
            bandwidth: Hertz::from_mhz(70.0),
            phy_rate: BitRate::from_mbps(120.0),
            range_m: 50.0,
        }
    }

    /// Bluetooth: $10, 29 mW, 1 Mbps, 10 m.
    pub fn bluetooth() -> Self {
        Platform {
            name: "Bluetooth".into(),
            carrier: Hertz::from_ghz(2.4),
            cost_usd: 10.0,
            power: Watts::from_milliwatts(29.0),
            tx_power: DbmPower::new(5.0),
            bandwidth: Hertz::from_mhz(1.0),
            phy_rate: BitRate::from_mbps(1.0),
            range_m: 10.0,
        }
    }

    /// The full Table 1 row set, in the paper's column order.
    pub fn table1() -> Vec<Platform> {
        vec![
            Self::mmx(),
            Self::mira(),
            Self::openmili(),
            Self::wifi_80211n(),
            Self::bluetooth(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} !~ {b}");
    }

    #[test]
    fn table1_efficiency_column_reproduces() {
        // Table 1: 11, 11.6, 3.8(≈3.85), 17.5, 29 nJ/bit.
        close(Platform::mmx().energy_per_bit_nj(), 11.0, 0.01);
        close(Platform::mira().energy_per_bit_nj(), 11.6, 0.01);
        close(Platform::openmili().energy_per_bit_nj(), 3.85, 0.1);
        close(Platform::wifi_80211n().energy_per_bit_nj(), 17.5, 0.01);
        close(Platform::bluetooth().energy_per_bit_nj(), 29.0, 0.01);
    }

    #[test]
    fn mmx_is_cheapest_mmwave_platform_by_far() {
        let mmx = Platform::mmx().cost_usd;
        assert!(Platform::mira().cost_usd / mmx > 60.0);
        assert!(Platform::openmili().cost_usd / mmx > 70.0);
    }

    #[test]
    fn mmx_power_is_lowest_among_mmwave() {
        let mmx = Platform::mmx().power.value();
        assert!(Platform::mira().power.value() > 10.0 * mmx);
        assert!(Platform::openmili().power.value() > 4.0 * mmx);
    }

    #[test]
    fn mmx_beats_bluetooth_by_100x_rate() {
        // §10: "Bluetooth provides only 1 Mbps ... mmX provides up to
        // 100 Mbps."
        let ratio = Platform::mmx().phy_rate / Platform::bluetooth().phy_rate;
        close(ratio, 100.0, 1e-9);
    }

    #[test]
    fn mmx_efficiency_beats_wifi() {
        // Abstract: "energy efficiency of 11 nJ/bit, which is even lower
        // than existing WiFi modules".
        assert!(Platform::mmx().energy_per_bit_nj() < Platform::wifi_80211n().energy_per_bit_nj());
    }

    #[test]
    fn table_has_five_rows_mmx_first() {
        let t = Platform::table1();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].name, "mmX");
    }

    #[test]
    fn mmwave_platforms_use_mmwave_carriers() {
        for p in Platform::table1() {
            if p.name == "mmX" || p.name == "MiRa" || p.name.starts_with("OpenMili") {
                assert!(p.carrier.ghz() >= 24.0, "{} carrier {}", p.name, p.carrier);
            } else {
                assert!((p.carrier.ghz() - 2.4).abs() < 1e-9);
            }
        }
    }
}
